(* serve-live: an in-process durable checker daemon ([Rdt_serve.Server]
   with [seq_mapper]) on a Unix socket, fed by two pipelining client
   streams on the same thread.  Client A streams a trace of a reliable
   run, client B a trace of a [Crash_sim] run with rollbacks; both carry
   flag and GCP queries at fixed event positions.  One op is one GCP
   query round trip.  Every pass streams the same two traces under the
   same stream names, so the mix of history lengths never changes.
   Only the traced run drives it (see [Layers]): its end-to-end figures
   follow host load too closely to gate. *)

open Bench_kit
module Server = Rdt_serve.Server
module Client = Rdt_serve.Client
module S = Rdt_check.Session
module W = S.Wire
module F = S.Frame
module O = Rdt_check.Online
module T = Rdt_obs.Trace
module Meter = Rdt_obs.Meter
module Min_gcp = Rdt_core.Min_gcp

let n = 8

(* 2000 messages make a stream of about 5-6k events.  Clients keep up to
   [window] unacknowledged events in flight, in frames of
   [frame_events]; both bound what sits in the socket buffers, so a
   blocking client write never waits on this same thread's server. *)
let messages = 2000
let frame_events = 64
let window = 1024

(* Query positions: a flag query every [flag_every] events and a GCP
   query (min and max alternating) every [gcp_every], up to event
   [horizon], the same in both streams whatever the traces' lengths, so
   the mix of history lengths does not depend on the seed (every trace
   is longer than [horizon]): 44 GCP queries per pass. *)
let flag_every = 100
let gcp_every = 200
let horizon = 4400

(* ------------------------------------------------------------------ *)
(* Inputs and their oracle answers                                     *)
(* ------------------------------------------------------------------ *)

type kind = Flag | Gcp

type expect =
  | Answer of W.answer  (** what the serial oracle answers *)
  | Refused  (** the oracle has no answer either *)

type query = { offset : int; q : W.query; kind : kind; expect : expect }

type input = {
  name : string;
  events : T.event array;
  summary : O.summary;  (** serial [Online.check_trace] verdict *)
  queries : query array;  (** by offset *)
}

let record ~seed label run =
  let tr = T.ring ~capacity:(64 * messages) in
  run (Rdt_dist.Rng.derive_seed seed label) tr;
  let meta = T.Meta { n; protocol = "bhmr"; env = label; seed; mode = "serve-live" } in
  Array.of_list (meta :: T.events tr)

let reliable_trace ~seed =
  record ~seed "random" (fun seed trace ->
      ignore
        (Rdt_core.Runtime.run
           (Rdt_core.Runtime.configure ~n ~seed ~messages ~trace
              (Rdt_workloads.Registry.find_exn "random")
              (Rdt_core.Registry.find_exn "bhmr"))
          : Rdt_core.Runtime.result))

(* Two crashes, from the first victim whose crashes roll some process
   back, so the stream always carries rollback events. *)
let crash_trace ~seed =
  let module CS = Rdt_failures.Crash_sim in
  let has_rollback = Array.exists (function T.Rollback _ -> true | _ -> false) in
  let rec try_victim v =
    if v = n then failwith "serve-live: no crash victim produced a rollback";
    let evs =
      record ~seed "client-server" (fun seed trace ->
          ignore
            (CS.run
               (CS.configure ~n ~seed ~messages ~trace
                  ~crashes:
                    [
                      { CS.victim = v; at = 3000; repair_delay = 200 };
                      { CS.victim = (v + (n / 2)) mod n; at = 6000; repair_delay = 200 };
                    ]
                  (Rdt_workloads.Registry.find_exn "client-server")
                  (Rdt_core.Registry.find_exn "bhmr"))
              : CS.result))
    in
    if has_rollback evs then evs else try_victim (v + 1)
  in
  try_victim 0

let eval_flag eng = function
  | W.Rdt_so_far -> W.Flag (O.rdt_so_far eng)
  | W.Zcycle -> W.Flag (O.zcycle eng)
  | W.Summary -> W.Stats (O.summary eng)
  | W.Trackable (a, b) -> W.Flag (O.trackable eng a b)
  | W.Min_gcp _ | W.Max_gcp _ -> invalid_arg "eval_flag"

(* The oracle for a GCP query on a prefix: [Replay.rebuild] + [Min_gcp]. *)
let eval_gcp events k q =
  match Rdt_obs.Replay.rebuild (Array.to_list (Array.sub events 0 k)) with
  | Error _ -> Refused
  | Ok pat -> (
      match q with
      | W.Min_gcp set -> Answer (W.Cut (Min_gcp.minimum_of_set pat set))
      | W.Max_gcp set -> Answer (W.Cut (Min_gcp.maximum_of_set pat set))
      | _ -> invalid_arg "eval_gcp")

(* The query schedule and every expected answer, from one serial pass
   over the trace with a fresh [Online] engine. *)
let make_input (name, events) =
  let len = Array.length events in
  let eng = O.create ~track_open:true ~n () in
  let latest = Array.make n 0 in
  let queries = ref [] and nf = ref 0 and ng = ref 0 in
  if len <= horizon then
    failwith
      (Printf.sprintf "serve-live: the %s trace has %d events, not more than %d" name len horizon);
  for k = 1 to horizon do
    let ev = events.(k - 1) in
    O.observe eng ev;
    (match ev with
    | T.Ckpt { pid; index; _ } -> latest.(pid) <- index
    | T.Rollback { pid; to_index; _ } -> latest.(pid) <- to_index
    | _ -> ());
    if k mod flag_every = 0 then begin
      let i = !nf mod n and j = (!nf + 3) mod n in
      let q =
        match !nf mod 4 with
        | 0 -> W.Rdt_so_far
        | 1 -> W.Trackable ((i, latest.(i)), (j, latest.(j)))
        | 2 -> W.Zcycle
        | _ -> W.Summary
      in
      let expect =
        match eval_flag eng q with a -> Answer a | exception Invalid_argument _ -> Refused
      in
      queries := { offset = k; q; kind = Flag; expect } :: !queries;
      incr nf
    end;
    if k mod gcp_every = 0 then begin
      let set = [ (!ng mod n, latest.(!ng mod n)) ] in
      let q = if !ng mod 2 = 0 then W.Min_gcp set else W.Max_gcp set in
      queries := { offset = k; q; kind = Gcp; expect = eval_gcp events k q } :: !queries;
      incr ng
    end
  done;
  let summary =
    match O.check_trace (Array.to_list events) with
    | Ok t -> O.summary t
    | Error e -> failwith (Printf.sprintf "%s: the serial check rejects the trace: %s" name e)
  in
  { name; events; summary; queries = Array.of_list (List.rev !queries) }

let inputs ~seed =
  List.map make_input [ ("reliable", reliable_trace ~seed); ("crash", crash_trace ~seed) ]

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable gcp_s : float list;  (** GCP round trips, answered or refused *)
  mutable gcp_attempted : int;
  mutable gcp_refused : int;  (** answered [Failed] *)
  mutable failed : int;  (** replies that disagree with the oracle *)
  count_wire : bool;  (** encode each request once more to count its bytes *)
  mutable wire_bytes : int;  (** request bytes written by the clients *)
}

let new_stats ?(count_wire = false) () =
  { gcp_s = []; gcp_attempted = 0; gcp_refused = 0; failed = 0; count_wire; wire_bytes = 0 }

type client = {
  inp : input;
  stream : string;
  conn : Client.t;
  upto : int;  (** events this connection streams *)
  queries : bool;  (** ask the query schedule *)
  bye : bool;  (** end the stream once every event is acknowledged *)
  mutable welcomed : bool;
  mutable next : int;
  mutable acked : int;
  mutable sched : int;
  mutable waiting : (query * float) option;
  mutable said_bye : bool;
  mutable goodbye : (int * O.summary * int list) option;
}

let send st c req =
  if st.count_wire then
    st.wire_bytes <- st.wire_bytes + String.length (F.encode (W.encode_request req));
  Client.send c.conn req

let ask st c q =
  c.waiting <- Some (q, Measure.now ());
  send st c (W.Query { id = c.sched; query = q.q })

(* Send whatever the client may send now; [true] if it sent anything. *)
let advance st c =
  let next_query =
    if c.queries && c.sched < Array.length c.inp.queries then Some c.inp.queries.(c.sched)
    else None
  in
  if (not c.welcomed) || c.waiting <> None || c.said_bye then false
  else
    match next_query with
    | Some q when q.offset = c.next && q.offset <= c.upto ->
        ask st c q;
        c.sched <- c.sched + 1;
        true
    | _ when c.next < c.upto ->
        let bound = match next_query with Some q -> min q.offset c.upto | None -> c.upto in
        (* pipeline frames up to the window or the next query's offset *)
        let sent = ref false in
        while c.next < bound && c.next - c.acked < window do
          let k = min frame_events (bound - c.next) in
          send st c (W.Events (Array.to_list (Array.sub c.inp.events c.next k)));
          c.next <- c.next + k;
          sent := true
        done;
        !sent
    | _ when c.bye && c.acked = c.upto ->
        send st c W.Bye;
        c.said_bye <- true;
        true
    | _ -> false

let disagree st fmt =
  st.failed <- st.failed + 1;
  Report.check false fmt

let respond st c = function
  | W.Welcome { resumed; _ } ->
      c.welcomed <- true;
      c.next <- resumed;
      c.acked <- resumed;
      (* queries the recovered prefix already covers are not asked again *)
      while c.sched < Array.length c.inp.queries && c.inp.queries.(c.sched).offset < resumed do
        c.sched <- c.sched + 1
      done
  | W.Ack { seen } -> c.acked <- max c.acked seen
  | (W.Answer { answer = _; _ } | W.Failed { error = _; _ }) as r -> (
      let q, t0 = Option.get c.waiting in
      let dt = Measure.now () -. t0 in
      c.waiting <- None;
      let got = match r with W.Answer { answer; _ } -> Some answer | _ -> None in
      if q.kind = Gcp then begin
        st.gcp_s <- dt :: st.gcp_s;
        st.gcp_attempted <- st.gcp_attempted + 1;
        if got = None then st.gcp_refused <- st.gcp_refused + 1
      end;
      match (q.expect, got) with
      | Answer a, Some b when a = b -> ()
      | Refused, None -> ()
      | Answer _, Some _ ->
          disagree st "%s: query at event %d answered differently from the oracle" c.stream q.offset
      | Answer _, None ->
          disagree st "%s: query at event %d refused, the oracle answers it" c.stream q.offset
      | Refused, Some _ ->
          disagree st "%s: query at event %d answered, the oracle has no answer" c.stream q.offset)
  | W.Rejected { error; _ } -> failwith (Printf.sprintf "%s: stream rejected: %s" c.stream error)
  | W.Goodbye { seen; summary; orphans } -> c.goodbye <- Some (seen, summary, orphans)

(* Drive the server and the clients on this thread until [until ()].
   Traced, every [Server.step] is a span, split by whether it did work. *)
let pump ?(probe = Spans.off) st srv clients ~until =
  let idle = ref 0 in
  while not (until ()) do
    let sent = List.fold_left (fun acc c -> advance st c || acc) false clients in
    let work, dt = Measure.time (fun () -> Server.step srv) in
    Spans.note probe (if work > 0 then "server.step_busy_s" else "server.step_idle_s") dt;
    let got =
      List.fold_left
        (fun acc c ->
          match Client.poll c.conn with
          | [] -> acc
          | rs ->
              List.iter (respond st c) rs;
              true)
        false clients
    in
    if sent || work > 0 || got then idle := 0
    else begin
      incr idle;
      if !idle > 1_000_000 then failwith "serve-live: server and clients made no progress"
    end
  done

let connect ?(queries = true) ?(bye = true) ?upto st ~socket inp stream =
  let conn = Client.connect ~socket in
  let c =
    {
      inp;
      stream;
      conn;
      upto = Option.value upto ~default:(Array.length inp.events);
      queries;
      bye;
      welcomed = false;
      next = 0;
      acked = 0;
      sched = 0;
      waiting = None;
      said_bye = false;
      goodbye = None;
    }
  in
  send st c (W.Hello { version = W.version; stream; n });
  c

let check_goodbye c =
  match c.goodbye with
  | None -> Report.check false "%s: no goodbye" c.stream
  | Some (seen, summary, orphans) ->
      let len = Array.length c.inp.events in
      Report.check (seen = len) "%s: goodbye saw %d of %d events" c.stream seen len;
      Report.check (summary = c.inp.summary)
        "%s: final summary differs from serial Online.check_trace" c.stream;
      Report.check (orphans = []) "%s: stream ended with orphaned messages" c.stream

(* ------------------------------------------------------------------ *)
(* The daemon, its passes and its restart                              *)
(* ------------------------------------------------------------------ *)

type env = {
  socket : string;
  root : string;  (** durable root: one session directory per stream *)
  inputs : input list;
  meter : Meter.t;
  mutable srv : Server.t;
}

let start ~socket ~root meter =
  Server.create ~mapper:Server.seq_mapper ~meter
    { (Server.default_config ~socket) with Server.durable_root = Some root }

let create ~seed ~work =
  let root = Filename.concat work "durable" and socket = Filename.concat work "serve.sock" in
  Measure.rm_rf root;
  let meter = Meter.create () in
  let inputs = inputs ~seed in
  { socket; root; inputs; meter; srv = start ~socket ~root meter }

let counter e name = Option.value ~default:0 (List.assoc_opt name (Meter.counters e.meter))

let finish_streams e clients =
  List.iter
    (fun c ->
      check_goodbye c;
      Client.close c.conn;
      Measure.rm_rf (Filename.concat e.root c.stream))
    clients

type pass = { stats : stats; wall_s : float; events : int; wal_bytes : int }

(* One pass: both streams from [Hello] to [Goodbye], with every query of
   the schedule, under the same stream names every time. *)
let pass ?probe ?count_wire e =
  let st = new_stats ?count_wire () in
  let wal0 = counter e "wal.bytes" in
  let t0 = Measure.now () in
  let clients =
    List.map (fun inp -> connect st ~socket:e.socket inp ("live-" ^ inp.name)) e.inputs
  in
  pump ?probe st e.srv clients ~until:(fun () -> List.for_all (fun c -> c.goodbye <> None) clients);
  let wall_s = Measure.now () -. t0 in
  finish_streams e clients;
  {
    stats = st;
    wall_s;
    events = List.fold_left (fun a (inp : input) -> a + Array.length inp.events) 0 e.inputs;
    wal_bytes = counter e "wal.bytes" - wal0;
  }

(* The measured loop's pass; [first] keeps the first pass's counts. *)
let loop_pass e ~first =
  let p = pass e in
  if !first = None then first := Some p;
  {
    Loop.op_s = Array.of_list p.stats.gcp_s;
    busy_s = p.wall_s;
    events = p.events;
    failed = p.stats.failed;
  }

(* Request bytes one pass puts on the wire, from an extra untimed pass
   that encodes every request once more to measure it.  The frames'
   contents depend only on the inputs and the query positions, never on
   timing, so the count repeats exactly. *)
let wire_bytes e = (pass ~count_wire:true e).stats.wire_bytes

(* The restart phase.  Untimed, [restart_copies] streams per trace are
   written in full to the durable root and the daemon is killed without
   a final sync.  A daemon restart is then [Server.create] on that root
   and a [Hello] reattaching every stream, which runs
   [Rdt_durable.Session] recovery (newest snapshot, then WAL replay). *)
let restart_copies = 2

let restart_names e =
  List.concat_map
    (fun inp ->
      List.init restart_copies (fun i -> (inp, Printf.sprintf "restart-%s-%d" inp.name i)))
    e.inputs

let write_restart_root e =
  let st = new_stats () in
  let clients =
    List.map
      (fun (inp, name) -> connect ~queries:false ~bye:false st ~socket:e.socket inp name)
      (restart_names e)
  in
  pump st e.srv clients ~until:(fun () ->
      List.for_all (fun c -> c.welcomed && c.acked = c.upto) clients);
  Server.abort e.srv;
  List.iter (fun c -> Client.close c.conn) clients

(* Restart and reattach without sending events, so repeated restarts
   recover the same durable state. *)
let restart e =
  e.srv <- start ~socket:e.socket ~root:e.root e.meter;
  let st = new_stats () in
  let clients =
    List.map
      (fun (inp, name) -> connect ~queries:false ~bye:false ~upto:0 st ~socket:e.socket inp name)
      (restart_names e)
  in
  pump st e.srv clients ~until:(fun () -> List.for_all (fun c -> c.welcomed) clients);
  clients

let abort e clients =
  Server.abort e.srv;
  List.iter (fun c -> Client.close c.conn) clients

(* After the timed restarts: one more restart, then every stream is fed
   to its end; the final summaries must equal the uninterrupted ones. *)
let finish_restart e =
  e.srv <- start ~socket:e.socket ~root:e.root e.meter;
  let st = new_stats () in
  let clients =
    List.map
      (fun (inp, name) -> connect ~queries:false st ~socket:e.socket inp name)
      (restart_names e)
  in
  pump st e.srv clients ~until:(fun () -> List.for_all (fun c -> c.goodbye <> None) clients);
  finish_streams e clients

let close e =
  Server.close e.srv;
  Measure.rm_rf e.root
