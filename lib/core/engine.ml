module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng
module Channel = Rdt_dist.Channel
module Faults = Rdt_dist.Faults
module Transport = Rdt_dist.Transport
module Event_queue = Rdt_dist.Event_queue
module History = Rdt_pattern.History
module Ptypes = Rdt_pattern.Types
module Trace = Rdt_obs.Trace
module Meter = Rdt_obs.Meter

type msg = { id : int; src : int; dst : int; payload : Control.t }

type 'a net = {
  transmit : msg -> unit;
  handle : 'a -> unit;
  busy : unit -> bool;
}

let validate ~who ~n ~max_messages ~channel ~basic_period ~faults ~transport =
  let fail fmt = Printf.ksprintf (fun s -> invalid_arg (who ^ ": " ^ s)) fmt in
  if n < 2 then fail "n must be >= 2";
  if max_messages < 0 then fail "negative message budget";
  (match Channel.validate channel with Ok () -> () | Error e -> fail "bad channel spec: %s" e);
  (match Faults.validate ~n faults with Ok () -> () | Error e -> fail "bad fault spec: %s" e);
  (match transport with
  | Some p -> (
      match Transport.validate_params p with
      | Ok () -> ()
      | Error e -> fail "bad transport params: %s" e)
  | None ->
      if not (Faults.is_none faults) then
        fail "fault injection requires a transport (set cfg.transport)");
  let lo, hi = basic_period in
  if lo < 0 || hi < lo then fail "bad basic period"

(* Implications expected among the named predicates (weaker => stronger in
   the sense of Section 5.2: a less conservative test implies the more
   conservative one). *)
let expected_implications =
  [ ("c1", "c_fdas"); ("c2", "c2'"); ("c2", "c_fdas"); ("c2'", "c_fdas"); ("c_fdas", "c_fdi") ]

module Make (P : Protocol.S) (E : Env.S) = struct
  (* timers carry their process's epoch: a crash bumps it, so the timers
     pending at the crash go stale *)
  type 'a event = Tick of int * int | Basic of int * int | Net of 'a

  type 'a t = {
    n : int;
    rng : Rng.t;
    env : E.t;
    states : P.state array;
    saved : (int * P.state) list array option; (* per process: (index, copy), newest first *)
    history : History.t;
    queue : 'a event Event_queue.t;
    trace : Trace.t;
    max_messages : int;
    max_time : int;
    basic_period : int * int;
    mutable net : 'a net;
    interval_events : int array;
    epoch : int array;
    down : bool array;
    mutable now : int;
    mutable sent : int;
    mutable delivered : int;
    mutable abandoned : int;
    mutable basic : int;
    mutable basic_skipped : int;
    mutable forced : int;
    mutable internal_events : int;
    count_predicates : bool;
    pred_counts : (string, int ref) Hashtbl.t;
    violations : (string * string, unit) Hashtbl.t;
  }

  let no_net = { transmit = ignore; handle = ignore; busy = (fun () -> false) }

  let create ?(restorable = false) ?(count_predicates = true) ~n ~seed ~max_messages ~max_time
      ~basic_period ~trace () =
    let rng = Rng.create seed in
    let env = E.create ~n ~rng:(Rng.split rng) in
    let states = Array.init n (fun pid -> P.create ~n ~pid) in
    {
      n;
      rng;
      env;
      states;
      saved = (if restorable then Some (Array.make n []) else None);
      history = History.create ~n;
      queue = Event_queue.create ();
      trace;
      max_messages;
      max_time;
      basic_period;
      net = no_net;
      interval_events = Array.make n 0;
      epoch = Array.make n 0;
      down = Array.make n false;
      now = 0;
      sent = 0;
      delivered = 0;
      abandoned = 0;
      basic = 0;
      basic_skipped = 0;
      forced = 0;
      internal_events = 0;
      count_predicates;
      pred_counts = Hashtbl.create 7;
      violations = Hashtbl.create 7;
    }

  let rng e = e.rng
  let now e = e.now
  let sent e = e.sent
  let delivered e = e.delivered
  let history e = e.history
  let down e pid = e.down.(pid)
  let dirty e pid = e.interval_events.(pid) > 0
  let next_index e pid = History.next_index e.history pid
  let schedule e ~at x = Event_queue.schedule e.queue ~time:at (Net x)

  let take_checkpoint ?(preds = []) e pid kind =
    (* C_{i,0} records no TDV: the pattern builder creates it *)
    let tdv = if kind = Ptypes.Initial then None else P.tdv e.states.(pid) in
    let index = History.checkpoint e.history ?tdv ~kind ~time:e.now pid in
    if Trace.on e.trace then
      Trace.emit e.trace (Ckpt { pid; index; kind; time = e.now; tdv; preds });
    P.on_checkpoint e.states.(pid);
    Option.iter (fun saved -> saved.(pid) <- (index, P.copy e.states.(pid)) :: saved.(pid)) e.saved;
    e.interval_events.(pid) <- 0

  let force e ~preds pid =
    e.forced <- e.forced + 1;
    take_checkpoint ~preds e pid Ptypes.Forced

  let send e ~src ~dst =
    if e.sent < e.max_messages && src <> dst && not e.down.(src) then begin
      let id = e.sent in
      e.sent <- id + 1;
      let m = { id; src; dst; payload = P.make_payload e.states.(src) ~dst } in
      History.send e.history ~msg:id ~src ~dst;
      if Trace.on e.trace then Trace.emit e.trace (Send { msg = id; src; dst; time = e.now });
      e.interval_events.(src) <- e.interval_events.(src) + 1;
      e.net.transmit m;
      (* a checkpoint-after-send checkpoint belongs between the send and
         any later event of [src] *)
      if P.force_after_send then force e ~preds:[ "after-send" ] src
    end

  let do_action e pid = function
    | Env.Send dst -> send e ~src:pid ~dst
    | Env.Internal ->
        if not e.down.(pid) then begin
          History.internal e.history pid;
          if Trace.on e.trace then Trace.emit e.trace (Internal { pid; time = e.now });
          e.interval_events.(pid) <- e.interval_events.(pid) + 1;
          e.internal_events <- e.internal_events + 1
        end
    | Env.Checkpoint ->
        if not e.down.(pid) then
          if e.interval_events.(pid) > 0 then begin
            e.basic <- e.basic + 1;
            take_checkpoint e pid Ptypes.Basic
          end
          else e.basic_skipped <- e.basic_skipped + 1

  let fired named = List.filter_map (fun (name, v) -> if v then Some name else None) named

  (* Counts the predicates that fired and any broken implication among
     them, and returns their names so a forced checkpoint triggered by
     this arrival can be traced to its cause. *)
  let record_predicates e ~dst ~src payload =
    match P.predicates e.states.(dst) ~src payload with
    | [] -> []
    | named ->
        List.iter
          (fun (name, v) ->
            if v then
              match Hashtbl.find_opt e.pred_counts name with
              | Some r -> incr r
              | None -> Hashtbl.add e.pred_counts name (ref 1))
          named;
        List.iter
          (fun (weaker, stronger) ->
            match (List.assoc_opt weaker named, List.assoc_opt stronger named) with
            | Some true, Some false -> Hashtbl.replace e.violations (weaker, stronger) ()
            | _ -> ())
          expected_implications;
        fired named

  let deliver ?received e { id; src; dst; payload } =
    let preds = if e.count_predicates then record_predicates e ~dst ~src payload else [] in
    if P.must_force e.states.(dst) ~src payload then begin
      (* without counting, the predicates are evaluated (they are pure)
         only to name a traced forced checkpoint's cause *)
      let preds =
        if e.count_predicates || not (Trace.on e.trace) then preds
        else fired (P.predicates e.states.(dst) ~src payload)
      in
      force e ~preds dst
    end;
    P.absorb e.states.(dst) ~src payload;
    History.recv e.history ~msg:id ~dst;
    e.delivered <- e.delivered + 1;
    if Trace.on e.trace then Trace.emit e.trace (Deliver { msg = id; src; dst; time = e.now });
    e.interval_events.(dst) <- e.interval_events.(dst) + 1;
    Option.iter (fun f -> f ()) received;
    List.iter (do_action e dst) (E.on_deliver e.env ~pid:dst ~src)

  let abandon e { id; src; dst; _ } =
    History.abandon e.history id;
    e.abandoned <- e.abandoned + 1;
    if Trace.on e.trace then Trace.emit e.trace (Undeliverable { msg = id; src; dst; time = e.now })

  let draw_basic_delay e =
    let lo, hi = e.basic_period in
    Rng.int_in e.rng lo hi

  let start_timers e pid ~first_tick =
    Event_queue.schedule e.queue ~time:first_tick (Tick (pid, e.epoch.(pid)));
    if e.basic_period <> (0, 0) then
      Event_queue.schedule e.queue ~time:(e.now + draw_basic_delay e) (Basic (pid, e.epoch.(pid)))

  let halt e pid =
    e.down.(pid) <- true;
    e.epoch.(pid) <- e.epoch.(pid) + 1

  let revive e pid = e.down.(pid) <- false

  let start e net =
    e.net <- net;
    (* the initial checkpoints C_{i,0}, mirrored in the protocol states *)
    for pid = 0 to e.n - 1 do
      take_checkpoint e pid Ptypes.Initial
    done;
    for pid = 0 to e.n - 1 do
      start_timers e pid ~first_tick:(E.initial_tick_delay e.env ~pid)
    done

  let timer_live e pid epoch = epoch = e.epoch.(pid) && (not e.down.(pid)) && e.now <= e.max_time

  let step e = function
    | Tick (pid, epoch) ->
        if timer_live e pid epoch && e.sent < e.max_messages then begin
          let { Env.actions; next_tick_in } = E.on_tick e.env ~pid in
          List.iter (do_action e pid) actions;
          match next_tick_in with
          | Some d ->
              Event_queue.schedule e.queue ~time:(e.now + max 1 d) (Tick (pid, epoch))
          | None -> ()
        end
    | Basic (pid, epoch) ->
        (* after the send budget is spent, in-flight arrivals keep
           extending intervals; the network says how long those deserve
           basic-checkpoint coverage *)
        if timer_live e pid epoch && (e.sent < e.max_messages || e.net.busy ()) then begin
          do_action e pid Env.Checkpoint;
          Event_queue.schedule e.queue ~time:(e.now + draw_basic_delay e) (Basic (pid, epoch))
        end
    | Net x -> e.net.handle x

  let run e ~meter =
    let t0 = Meter.now () in
    let rec loop () =
      match Event_queue.pop e.queue with
      | None -> ()
      | Some (t, ev) ->
          e.now <- t;
          step e ev;
          loop ()
    in
    loop ();
    Meter.add_span Meter.default (meter ^ ".sim") (Meter.now () -. t0);
    Meter.add Meter.default (meter ^ ".runs") 1

  let rollback e pid ~to_index =
    let undone = History.rollback e.history pid ~to_index in
    let saved = Option.get e.saved in
    let rec keep = function (index, _) :: older when index > to_index -> keep older | l -> l in
    saved.(pid) <- keep saved.(pid);
    e.states.(pid) <- P.copy (snd (List.hd saved.(pid)));
    e.interval_events.(pid) <- 0;
    undone

  let metrics e ~seed =
    {
      Metrics.n = e.n;
      protocol = P.name;
      environment = E.name;
      seed;
      basic = e.basic;
      basic_skipped = e.basic_skipped;
      forced = e.forced;
      messages = e.sent - e.abandoned;
      internal_events = e.internal_events;
      payload_bits_per_msg = P.payload_bits ~n:e.n;
      duration = e.now;
    }

  (* sorted traversals: these lists reach reports and JSON output, so
     they must be a pure function of the table contents *)
  let predicate_counts e =
    Rdt_dist.Tbl.bindings_sorted ~compare:String.compare e.pred_counts
    |> List.map (fun (k, v) -> (k, !v))

  let hierarchy_violations e =
    Rdt_dist.Tbl.keys_sorted e.violations ~compare:(fun (a, b) (c, d) ->
        match String.compare a c with 0 -> String.compare b d | r -> r)
end
