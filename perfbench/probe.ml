(* Clocks, window meters and in-memory spans.

   End-to-end timings read the process CPU clock ([Unix.times], user +
   sys): every workload runs in one process on one domain with no extra
   threads, so CPU time is the work done, without the scheduling noise
   that wall time carries on a small shared VM.  Per-call timings (the
   Node_core replay, the codec loops) read the monotonic clock, the only
   one fine enough for a single call; they are per-layer numbers. *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall_s = Unix.gettimeofday
let mono_ns () = Int64.to_int (Monotonic_clock.now ())

(* Accumulates CPU, wall time and minor words over the slices of a
   measured window, so work done between slices (sampling, checks) is
   left out. *)
type meter = { mutable cpu : float; mutable wall : float; mutable words : float }

let meter () = { cpu = 0.; wall = 0.; words = 0. }

let measure m f =
  let w0 = Gc.minor_words () in
  let c0 = cpu_s () in
  let t0 = wall_s () in
  let v = f () in
  let t1 = wall_s () in
  let c1 = cpu_s () in
  let w1 = Gc.minor_words () in
  m.cpu <- m.cpu +. (c1 -. c0);
  m.wall <- m.wall +. (t1 -. t0);
  m.words <- m.words +. (w1 -. w0);
  v

(* --- spans (traced runs only) ------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** -1 at the root *)
  name : string;
  start_ns : int;
  stop_ns : int;
  span_cpu_s : float;
}

let tracing = ref false
let spans = ref []
let next_id = ref 0
let current = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let c0 = cpu_s () in
    let start_ns = mono_ns () in
    let finish () =
      let stop_ns = mono_ns () in
      spans :=
        { id; parent; name; start_ns; stop_ns; span_cpu_s = cpu_s () -. c0 } :: !spans;
      current := parent
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"stop_ns\":%d,\
         \"cpu_s\":%.6f}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.start_ns s.stop_ns s.span_cpu_s)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* --- small statistics ---------------------------------------------------- *)

(* Nearest-rank percentile of an unsorted sample; nan when empty. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let median samples = percentile samples 50.

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
