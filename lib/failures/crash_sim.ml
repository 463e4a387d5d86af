module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng
module Channel = Rdt_dist.Channel
module Faults = Rdt_dist.Faults
module Transport = Rdt_dist.Transport
module Pattern = Rdt_pattern.Pattern
module History = Rdt_pattern.History
module Protocol = Rdt_core.Protocol
module Trace = Rdt_obs.Trace
module Meter = Rdt_obs.Meter

type crash = { victim : int; at : int; repair_delay : int }

type config = {
  n : int;
  seed : int;
  env : Env.t;
  protocol : Protocol.t;
  channel : Channel.spec;
  basic_period : int * int;
  max_messages : int;
  max_time : int;
  crashes : crash list;
  faults : Faults.spec;
  transport : Transport.params option;
  trace : Trace.t;
}

let configure ?(n = 8) ?(seed = 1) ?(messages = 2000) ?(channel = Channel.Uniform (5, 100))
    ?(basic_period = (300, 700)) ?(max_time = max_int / 2) ?(crashes = [])
    ?(faults = Faults.none) ?transport ?(trace = Trace.null) env protocol =
  {
    n;
    seed;
    env;
    protocol;
    channel;
    basic_period;
    max_messages = messages;
    max_time;
    crashes;
    faults;
    transport;
    trace;
  }

let default_config env protocol = configure env protocol

type recovery = {
  crash : crash;
  line : int array;
  events_undone : int;
  checkpoints_undone : int;
  messages_undone : int;
  messages_replayed : int;
}

type metrics = {
  messages_delivered : int;
  basic : int;
  forced : int;
  duration : int;
  total_events_undone : int;
  total_messages_replayed : int;
  retransmissions : int;
  packets_dropped : int;
  undeliverable : int;
}

type result = { pattern : Pattern.t; recoveries : recovery list; metrics : metrics }

type msg_status =
  | Flight  (** sent, arrival pending in the channel *)
  | Delivered
  | Dead  (** its send was rolled back; never to be delivered *)
  | Replay  (** delivered once, delivery rolled back; awaiting replay *)
  | Undeliv  (** abandoned by the transport after [max_retx] retries *)

type msg = {
  m_msg : Rdt_core.Engine.msg;
  m_send_interval : int;
  mutable m_recv_interval : int; (* -1 until (re)delivered *)
  mutable m_status : msg_status;
  (* networked mode: per-message stop-and-wait retransmission state.  A
     generation counter stamps each (re)start of the retransmission loop
     so that timers surviving a rollback or a crash go stale instead of
     double-driving the message. *)
  mutable m_attempts : int;
  mutable m_acked : bool;
  mutable m_gen : int;
}

type packet =
  | Crash of crash
  | Repair of crash
  | Arrival of int (* msg id; reliable (non-networked) mode only *)
  | Packet of int (* msg id: one network copy of the data reaching dst *)
  | AckPkt of int (* msg id: the acknowledgement reaching src *)
  | Retx of int * int (* msg id, generation: retransmission timer *)

let validate cfg =
  Rdt_core.Engine.validate ~who:"Crash_sim" ~n:cfg.n ~max_messages:cfg.max_messages
    ~channel:cfg.channel ~basic_period:cfg.basic_period ~faults:cfg.faults
    ~transport:cfg.transport;
  let per_pid = Hashtbl.create 7 in
  List.iter
    (fun c ->
      if c.victim < 0 || c.victim >= cfg.n then invalid_arg "Crash_sim: victim out of range";
      if c.at < 0 then invalid_arg "Crash_sim: negative crash time";
      if c.repair_delay < 1 then invalid_arg "Crash_sim: repair_delay must be >= 1";
      (match Hashtbl.find_opt per_pid c.victim with
      | Some previous_end when c.at < previous_end ->
          invalid_arg "Crash_sim: overlapping crashes of the same process"
      | Some _ | None -> ());
      Hashtbl.replace per_pid c.victim (c.at + c.repair_delay))
    (List.sort (fun a b -> compare a.at b.at) cfg.crashes)

let run cfg =
  validate cfg;
  let module En = Rdt_core.Engine.Make ((val cfg.protocol)) ((val cfg.env)) in
  let tr = cfg.trace in
  let e =
    En.create ~restorable:true ~count_predicates:false ~n:cfg.n ~seed:cfg.seed
      ~max_messages:cfg.max_messages ~max_time:cfg.max_time ~basic_period:cfg.basic_period
      ~trace:tr ()
  in
  let rng = En.rng e in
  let now () = En.now e in
  let networked = cfg.transport <> None in
  (* the network stream is split only on the networked path so that
     transport-free runs keep the exact RNG stream (and hence results) of
     the original crash simulator *)
  let net_rng = if networked then Rng.split rng else rng in
  let tparams = match cfg.transport with Some p -> p | None -> Transport.default_params in
  let retransmissions = ref 0 and packets_dropped = ref 0 in
  let buffers : int list array = Array.make cfg.n [] (* arrivals while down, reversed *) in
  let msgs : (int, msg) Hashtbl.t = Hashtbl.create 256 in
  let msg id = Hashtbl.find msgs id in
  let recoveries = ref [] in
  (* --------- networked mode: faulty links + per-message stop-and-wait ----
     The sliding-window {!Rdt_dist.Transport} assumes immutable link
     history, which rollback breaks (sends are undone, deliveries are
     replayed), so crashes compose with faults through a simpler
     per-message protocol: transmit, await ack, retransmit with the same
     exponential backoff + jitter, abandon as [Undeliv] after [max_retx]
     retries.  Exactly-once delivery is enforced by [m_status]; stale
     timers are retired by the generation counter. *)
  let rto k =
    let f = min (tparams.Transport.backoff ** float_of_int k) 32.0 in
    max 1 (int_of_float (float_of_int tparams.Transport.retx_timeout *. f))
  in
  let jitter () =
    if tparams.Transport.jitter > 0 then Rng.int_in net_rng 0 tparams.Transport.jitter else 0
  in
  let drop ~src ~dst =
    incr packets_dropped;
    if Trace.on tr then Trace.emit tr (Drop { src; dst; time = now () })
  in
  let through ~src ~dst mk =
    (* one attempt through the faulty network: a partition cut loses the
       whole attempt; otherwise each (possibly duplicated) copy is
       independently dropped and delayed *)
    if Faults.cuts cfg.faults ~time:(now ()) ~src ~dst then drop ~src ~dst
    else
      let copies = if Rng.bernoulli net_rng cfg.faults.Faults.dup then 2 else 1 in
      for _ = 1 to copies do
        if Rng.bernoulli net_rng cfg.faults.Faults.drop then drop ~src ~dst
        else begin
          let d = Channel.sample net_rng cfg.channel in
          let d =
            if cfg.faults.Faults.reorder > 0.0 && Rng.bernoulli net_rng cfg.faults.Faults.reorder
            then d + Rng.int_in net_rng 1 cfg.faults.Faults.reorder_window
            else d
          in
          En.schedule e ~at:(now () + d) (mk ())
        end
      done
  in
  let send_ack id =
    let m = msg id in
    through ~src:m.m_msg.dst ~dst:m.m_msg.src (fun () -> AckPkt id)
  in
  let transmit id =
    let m = msg id in
    let { Rdt_core.Engine.src; dst; _ } = m.m_msg in
    m.m_attempts <- m.m_attempts + 1;
    if m.m_attempts > 1 then begin
      incr retransmissions;
      if Trace.on tr then
        Trace.emit tr (Retransmit { src; dst; seq = id; attempt = m.m_attempts - 1; time = now () })
    end;
    through ~src ~dst (fun () -> Packet id);
    En.schedule e ~at:(now () + rto (m.m_attempts - 1) + jitter ()) (Retx (id, m.m_gen))
  in
  let net_start id =
    (* (re)arm the stop-and-wait loop for [id]; bumping the generation
       retires any timer still in the queue.  While the sender is down
       only the pending ack is forgotten — its recovery re-arms the loop
       ([m_acked] must be cleared even then, or an ack received before a
       rollback would block the rebuild). *)
    let m = msg id in
    m.m_acked <- false;
    if not (En.down e m.m_msg.src) then begin
      m.m_gen <- m.m_gen + 1;
      m.m_attempts <- 0;
      transmit id
    end
  in
  let channel_arrival id =
    En.schedule e ~at:(now () + Channel.sample rng cfg.channel) (Arrival id)
  in
  let on_send (m : Rdt_core.Engine.msg) =
    Hashtbl.replace msgs m.id
      {
        m_msg = m;
        m_send_interval = En.next_index e m.src;
        m_recv_interval = -1;
        m_status = Flight;
        m_attempts = 0;
        m_acked = false;
        m_gen = 0;
      };
    if networked then net_start m.id else channel_arrival m.id
  in
  let deliver id =
    let m = msg id in
    En.deliver e m.m_msg ~received:(fun () ->
        m.m_status <- Delivered;
        m.m_recv_interval <- En.next_index e m.m_msg.dst)
  in
  (* ---------------- recovery ---------------- *)
  let compute_line bounds =
    (* maximum consistent vector under [bounds], over surviving delivered
       messages *)
    let v = Array.copy bounds in
    let changed = ref true in
    while !changed do
      changed := false;
      for id = 0 to En.sent e - 1 do
        let m = msg id in
        if
          m.m_status = Delivered
          && m.m_send_interval > v.(m.m_msg.src)
          && m.m_recv_interval <= v.(m.m_msg.dst)
        then begin
          v.(m.m_msg.dst) <- m.m_recv_interval - 1;
          if v.(m.m_msg.dst) < 0 then invalid_arg "Crash_sim: negative rollback";
          changed := true
        end
      done
    done;
    v
  in
  let recover (c : crash) =
    let recover_t0 = Meter.now () in
    let pid = c.victim in
    (* live processes secure their volatile state first *)
    for q = 0 to cfg.n - 1 do
      if (not (En.down e q)) && q <> pid && En.dirty e q then En.force e ~preds:[ "recovery" ] q
    done;
    (* the victim's bound is its last durable checkpoint, since its
       volatile suffix is about to be discarded *)
    let line = compute_line (Array.init cfg.n (fun q -> En.next_index e q - 1)) in
    let events_undone = ref 0 and ckpts_undone = ref 0 in
    let all_sends = ref [] and all_recvs = ref [] in
    for q = 0 to cfg.n - 1 do
      let u = En.rollback e q ~to_index:line.(q) in
      events_undone := !events_undone + u.events;
      ckpts_undone := !ckpts_undone + u.checkpoints;
      if Trace.on tr && u.events > 0 then
        Trace.emit tr (Rollback { pid = q; to_index = line.(q); time = now () });
      all_sends := u.sends @ !all_sends;
      all_recvs := u.recvs @ !all_recvs
    done;
    (* classify rolled-back messages *)
    List.iter (fun id -> (msg id).m_status <- Dead) !all_sends;
    (* up before the replays so that replayed messages sent by the repaired
       process restart their retransmission loops immediately *)
    En.revive e pid;
    let restarted = Hashtbl.create 17 in
    let restart id =
      if not (Hashtbl.mem restarted id) then begin
        Hashtbl.add restarted id ();
        net_start id
      end
    in
    let replayed = ref 0 in
    List.iter
      (fun id ->
        let m = msg id in
        if m.m_status <> Dead then begin
          (* send survived: redeliver from the sender-side log *)
          m.m_status <- Replay;
          m.m_recv_interval <- -1;
          incr replayed;
          if Trace.on tr then
            Trace.emit tr
              (Replay { msg = id; src = m.m_msg.src; dst = m.m_msg.dst; time = now () });
          if networked then restart id else channel_arrival id
        end)
      !all_recvs;
    (* buffered arrivals for the repaired process re-enter the channel
       (reliable mode only; the networked path never buffers — packets to a
       crashed process are lost and retransmission recovers them) *)
    List.iter
      (fun id ->
        match (msg id).m_status with
        | Flight | Replay -> channel_arrival id
        | Dead | Delivered | Undeliv -> ())
      (List.rev buffers.(pid));
    buffers.(pid) <- [];
    if networked then
      (* the repaired process lost its retransmission timers with its
         volatile state: re-arm the loop for each of its messages still
         owed a delivery (including replays deferred while it was down) *)
      for id = 0 to En.sent e - 1 do
        let m = msg id in
        if m.m_msg.src = pid && (not m.m_acked) && (m.m_status = Flight || m.m_status = Replay) then
          restart id
      done;
    En.start_timers e pid ~first_tick:(now () + 1);
    recoveries :=
      {
        crash = c;
        line;
        events_undone = !events_undone;
        checkpoints_undone = !ckpts_undone;
        messages_undone = List.length !all_sends;
        messages_replayed = !replayed;
      }
      :: !recoveries;
    Meter.add_span Meter.default "crash_sim.recovery" (Meter.now () -. recover_t0);
    Meter.add Meter.default "crash_sim.events_undone" !events_undone;
    Meter.add Meter.default "crash_sim.messages_replayed" !replayed
  in
  (* ---------------- network events ---------------- *)
  let handle = function
    | Crash c ->
        if En.down e c.victim then invalid_arg "Crash_sim: victim already down";
        (* the volatile suffix is lost immediately; we discard it at
           repair time, which is equivalent since the process does
           nothing while down *)
        En.halt e c.victim;
        En.schedule e ~at:(now () + c.repair_delay) (Repair c)
    | Repair c -> recover c
    | Arrival id -> (
        let m = msg id in
        match m.m_status with
        | Dead | Undeliv -> () (* undone send: the message evaporates *)
        | Delivered -> () (* stale arrival from before a rollback *)
        | Flight | Replay ->
            let dst = m.m_msg.dst in
            if En.down e dst then buffers.(dst) <- id :: buffers.(dst) else deliver id)
    | Packet id -> (
        let m = msg id in
        match m.m_status with
        | Dead | Undeliv -> () (* stray copy of an undone/abandoned send *)
        | Delivered -> send_ack id (* redundant copy: just re-ack *)
        | Flight | Replay ->
            if En.down e m.m_msg.dst then drop ~src:m.m_msg.src ~dst:m.m_msg.dst
            else begin
              deliver id;
              send_ack id
            end)
    | AckPkt id ->
        let m = msg id in
        if En.down e m.m_msg.src then drop ~src:m.m_msg.dst ~dst:m.m_msg.src
        else (
          match m.m_status with
          | Delivered -> m.m_acked <- true
          | Flight | Replay ->
              (* stale ack: the delivery it acknowledges was rolled
                 back (a genuine ack is always sent from [Delivered]
                 state, which only a rollback can leave).  Accepting
                 it would silence the retransmission loop re-armed at
                 recovery and strand the message undelivered. *)
              ()
          | Dead | Undeliv -> ())
    | Retx (id, gen) -> (
        let m = msg id in
        if gen = m.m_gen && (not m.m_acked) && not (En.down e m.m_msg.src) then
          match m.m_status with
          | Dead | Undeliv -> ()
          | Delivered when m.m_attempts > tparams.Transport.max_retx ->
              () (* the receiver has it; only the acks were lost *)
          | Flight | Replay when m.m_attempts > tparams.Transport.max_retx ->
              (* typed graceful degradation: give up, keep the run finite *)
              m.m_status <- Undeliv;
              En.abandon e m.m_msg
          | Flight | Replay | Delivered -> transmit id)
  in
  (* [busy] is constantly false: basic timers stop once the send budget is
     spent, even while messages are still owed a delivery.  [Runtime]'s
     networks keep them running until the channels drain; the recorded
     crash results (the benchmark's pinned digests among them) depend on
     this rule, so aligning the two is a change of its own. *)
  En.start e { Rdt_core.Engine.transmit = on_send; handle; busy = (fun () -> false) };
  List.iter (fun c -> En.schedule e ~at:c.at (Crash c)) cfg.crashes;
  En.run e ~meter:"crash_sim";
  Meter.add Meter.default "crash_sim.recoveries" (List.length !recoveries);
  let m = En.metrics e ~seed:cfg.seed and sent = En.sent e and history = En.history e in
  (* from here on the engine, and the protocol states it saved, are garbage *)
  let pattern_t0 = Meter.now () in
  let pattern = History.to_pattern history in
  Meter.add_span Meter.default "crash_sim.pattern" (Meter.now () -. pattern_t0);
  let recoveries = List.rev !recoveries in
  {
    pattern;
    recoveries;
    metrics =
      {
        messages_delivered = Pattern.num_messages pattern;
        basic = m.basic;
        forced = m.forced;
        duration = m.duration;
        total_events_undone = List.fold_left (fun a r -> a + r.events_undone) 0 recoveries;
        total_messages_replayed =
          List.fold_left (fun a r -> a + r.messages_replayed) 0 recoveries;
        retransmissions = !retransmissions;
        packets_dropped = !packets_dropped;
        undeliverable = sent - m.messages;
      };
  }
