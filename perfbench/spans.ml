(* Spans for the traced run: one span per call into a layer, kept in
   memory and written out when the benchmark ends. Tracing is off unless
   [on] is set; off, [span] only calls its function, so the untraced runs
   that give the end-to-end metrics pay nothing for it. Spans are
   recorded on the calling domain only. *)

type t = {
  id : int;
  name : string; (* the layer call, e.g. "x86lite.sim" *)
  workload : string; (* the workload the span was recorded in *)
  op : int; (* the op it belongs to; 0 for set-up *)
  parent : int; (* id of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
}

let on = ref false
let workload = ref ""
let op = ref 0
let recorded : t list ref = ref []
let open_spans : t list ref = ref []
let next_id = ref 0

let span name f =
  if not !on then f ()
  else begin
    incr next_id;
    let s =
      {
        id = !next_id;
        name;
        workload = !workload;
        op = !op;
        parent = (match !open_spans with p :: _ -> p.id | [] -> -1);
        start = Unix.gettimeofday ();
        stop = 0.0;
      }
    in
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        open_spans := List.tl !open_spans;
        recorded := s :: !recorded)
  end

let duration s = s.stop -. s.start

(* A span's self time is its duration minus the time its children cover.
   Children of one span never overlap: the benchmark is one client on one
   domain. Returns (span, self seconds) for every recorded span. *)
let self_times () =
  let covered = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    !recorded;
  let children s = Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
  List.map (fun s -> (s, duration s -. children s)) !recorded

(* One JSON object per line, in start order, times in microseconds from
   the first span. *)
let write path =
  let spans = List.sort (fun a b -> compare a.id b.id) !recorded in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let us t = Printf.sprintf "%.1f" ((t -. t0) *. 1e6) in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"workload\":%S,\"op\":%d,\
             \"parent\":%d,\"start_us\":%s,\"end_us\":%s}\n"
            s.id s.name s.workload s.op s.parent (us s.start) (us s.stop))
        spans)
