module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng
module Channel = Rdt_dist.Channel
module Faults = Rdt_dist.Faults
module Transport = Rdt_dist.Transport
module History = Rdt_pattern.History
module Trace = Rdt_obs.Trace
module Meter = Rdt_obs.Meter

type config = {
  n : int;
  seed : int;
  env : Env.t;
  protocol : Protocol.t;
  channel : Channel.spec;
  basic_period : int * int;
  max_messages : int;
  max_time : int;
  faults : Faults.spec;
  transport : Transport.params option;
  trace : Trace.t;
  online : bool;
}

let configure ?(n = 8) ?(seed = 1) ?(messages = 2000) ?(channel = Channel.Uniform (5, 100))
    ?(basic_period = (300, 700)) ?(max_time = max_int / 2) ?(faults = Faults.none) ?transport
    ?(trace = Trace.null) ?(online = false) env protocol =
  {
    n;
    seed;
    env;
    protocol;
    channel;
    basic_period;
    max_messages = messages;
    max_time;
    faults;
    transport;
    trace;
    online;
  }

let default_config env protocol = configure env protocol

type result = {
  pattern : Rdt_pattern.Pattern.t;
  metrics : Metrics.t;
  predicate_counts : (string * int) list;
  hierarchy_violations : (string * string) list;
  transport : Transport.stats option;
  online : Rdt_check.Online.summary option;
}

let validate_config cfg =
  Engine.validate ~who:"Runtime" ~n:cfg.n ~max_messages:cfg.max_messages ~channel:cfg.channel
    ~basic_period:cfg.basic_period ~faults:cfg.faults ~transport:cfg.transport

let simulate cfg =
  let module En = Engine.Make ((val cfg.protocol)) ((val cfg.env)) in
  let create () =
    En.create ~n:cfg.n ~seed:cfg.seed ~max_messages:cfg.max_messages ~max_time:cfg.max_time
      ~basic_period:cfg.basic_period ~trace:cfg.trace ()
  in
  let finish e net tp =
    En.start e net;
    En.run e ~meter:"runtime";
    let metrics = En.metrics e ~seed:cfg.seed in
    Meter.add Meter.default "runtime.messages" (En.sent e);
    Meter.add Meter.default "runtime.forced_ckpts" metrics.forced;
    Meter.add Meter.default "runtime.basic_ckpts" metrics.basic;
    (* the queue drained, so every message is settled: delivered or abandoned *)
    Option.iter (fun tp -> assert (Transport.in_flight tp = 0)) tp;
    let predicate_counts = En.predicate_counts e
    and hierarchy_violations = En.hierarchy_violations e
    and history = En.history e in
    (* from here on the engine's states are garbage *)
    let pattern = Meter.time Meter.default "runtime.pattern" (fun () -> History.to_pattern history) in
    {
      pattern;
      metrics;
      predicate_counts;
      hierarchy_violations;
      transport = Option.map Transport.stats tp;
      online = None;
    }
  in
  match cfg.transport with
  | None ->
      (* the paper's perfect channel: one arrival per message, its delay
         drawn on the root stream, so runs without a transport keep the
         seed behaviour bit for bit *)
      let e = create () in
      let transmit m =
        En.schedule e ~at:(En.now e + Channel.sample (En.rng e) cfg.channel) m
      in
      finish e
        { Engine.transmit; handle = En.deliver e; busy = (fun () -> En.delivered e < En.sent e) }
        None
  | Some params ->
      (* the reliable-delivery transport over the faulty network, on a
         stream split off the root *)
      let e = create () in
      let tr = cfg.trace in
      let notify (notice : Transport.notice) =
        if Trace.on tr then
          Trace.emit tr
            (match notice with
            | Transport.N_drop { src; dst; time } -> Drop { src; dst; time }
            | Transport.N_retransmit { src; dst; seq; attempt; time } ->
                Retransmit { src; dst; seq; attempt; time })
      in
      let tp =
        Transport.create ~notify ~n:cfg.n ~params ~faults:cfg.faults ~channel:cfg.channel
          ~rng:(Rng.split (En.rng e)) ()
      in
      let effects =
        List.iter (function
          | Transport.Wire { at; wire } -> En.schedule e ~at wire
          | Transport.Undeliverable { msg; _ } -> En.abandon e msg
          | Transport.Deliver { msg; _ } -> En.deliver e msg)
      in
      finish e
        {
          Engine.transmit =
            (fun m -> effects (Transport.send tp ~now:(En.now e) ~src:m.src ~dst:m.dst m));
          handle = (fun w -> effects (Transport.handle tp ~now:(En.now e) w));
          busy = (fun () -> Transport.in_flight tp > 0);
        }
        (Some tp)

let run cfg =
  validate_config cfg;
  let engine = if cfg.online then Some (Rdt_check.Online.create ~n:cfg.n ()) else None in
  let cfg =
    match engine with
    | None -> cfg
    | Some e -> { cfg with trace = Trace.tee cfg.trace (Rdt_check.Online.observer e) }
  in
  { (simulate cfg) with online = Option.map Rdt_check.Online.summary engine }
