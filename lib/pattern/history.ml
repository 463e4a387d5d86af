type ev =
  | Send of { msg : int; dst : int }
  | Recv of int
  | Internal
  | Ckpt of { index : int; kind : Types.ckpt_kind; time : int; tdv : int array option }

(* [prev] is the previous surviving entry of the same process, or -1: each
   process's history is a chain through the log, and a rollback only
   moves the chain's head *)
type entry = { pid : int; prev : int; ev : ev }

(* message ids are the caller's ints: hash them as themselves *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  n : int;
  mutable log : entry array; (* in recording order *)
  mutable len : int;
  head : int array; (* per process: newest surviving entry, or -1 *)
  next : int array; (* per process: next checkpoint index *)
  abandoned : unit Itbl.t;
}

let create ~n =
  { n; log = [||]; len = 0; head = Array.make n (-1); next = Array.make n 0; abandoned = Itbl.create 8 }

(* a static filler: [Array.make] forces a minor collection to fill a
   major-heap array with a young value *)
let filler = { pid = -1; prev = -1; ev = Internal }

let push h pid ev =
  if h.len = Array.length h.log then begin
    let bigger = Array.make (max 64 (2 * h.len)) filler in
    Array.blit h.log 0 bigger 0 h.len;
    h.log <- bigger
  end;
  h.log.(h.len) <- { pid; prev = h.head.(pid); ev };
  h.head.(pid) <- h.len;
  h.len <- h.len + 1

let send h ~msg ~src ~dst = push h src (Send { msg; dst })
let recv h ~msg ~dst = push h dst (Recv msg)
let internal h pid = push h pid Internal

let checkpoint h ?index ?tdv ~kind ~time pid =
  let index = Option.value index ~default:h.next.(pid) in
  push h pid (Ckpt { index; kind; time; tdv });
  h.next.(pid) <- index + 1;
  index

let next_index h pid = h.next.(pid)

type undone = { sends : int list; recvs : int list; events : int; checkpoints : int }

let rollback h pid ~to_index =
  let rec pop i u =
    if i < 0 then
      if to_index = 0 then (i, u)
      else invalid_arg (Printf.sprintf "rollback of pid %d to missing checkpoint %d" pid to_index)
    else
      let { prev; ev; _ } = h.log.(i) in
      match ev with
      | Ckpt { index; _ } when index = to_index -> (i, u)
      | Send { msg; _ } -> pop prev { u with sends = msg :: u.sends; events = u.events + 1 }
      | Recv msg -> pop prev { u with recvs = msg :: u.recvs; events = u.events + 1 }
      | Internal -> pop prev { u with events = u.events + 1 }
      | Ckpt _ -> pop prev { u with checkpoints = u.checkpoints + 1; events = u.events + 1 }
  in
  (* walking the chain newest first leaves the lists oldest first *)
  let head, undone = pop h.head.(pid) { sends = []; recvs = []; events = 0; checkpoints = 0 } in
  h.head.(pid) <- head;
  h.next.(pid) <- to_index + 1;
  undone

let abandon h msg = Itbl.replace h.abandoned msg ()

let to_pattern h =
  let alive = Bytes.make h.len '\000' in
  Array.iter
    (fun head ->
      let i = ref head in
      while !i >= 0 do
        Bytes.set alive !i '\001';
        i := h.log.(!i).prev
      done)
    h.head;
  let b = Pattern.Builder.create ~n:h.n in
  let handles = Itbl.create 64 in
  for i = 0 to h.len - 1 do
    let { pid; ev; _ } = h.log.(i) in
    if Bytes.get alive i = '\001' then
      match ev with
      | Send { msg; dst } ->
          if not (Itbl.mem h.abandoned msg) then
            Itbl.replace handles msg (Pattern.Builder.send b ~src:pid ~dst)
      | Recv msg -> (
          match Itbl.find_opt handles msg with
          | Some handle -> Pattern.Builder.recv b handle
          | None -> invalid_arg (Printf.sprintf "surviving delivery of rolled-back send %d" msg))
      | Internal -> Pattern.Builder.internal b pid
      | Ckpt { kind = Types.Initial; _ } -> () (* the builder takes C_{i,0} itself *)
      | Ckpt { kind; time; tdv; _ } -> ignore (Pattern.Builder.checkpoint ~kind ?tdv ~time b pid)
  done;
  Pattern.Builder.finish ~final_checkpoints:true b
