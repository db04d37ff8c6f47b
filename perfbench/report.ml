(* What one workload run reports: metrics by name and unit, correctness
   checks, the op counts, and the exact counters of its determinism
   fingerprint.  [emit] prints a human table and, last, the one-line JSON
   result. *)

type t = {
  workload : string;
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable checks : (string * bool * string) list;
  mutable exact : (string * float) list;
  mutable notes : string list;
  mutable attempted : int;
  mutable failed : int;
}

let create workload =
  { workload; metrics = []; checks = []; exact = []; notes = []; attempted = 0; failed = 0 }

let metric r name value unit_ = r.metrics <- (name, value, unit_) :: r.metrics
let check r name ok detail = r.checks <- (name, ok, detail) :: r.checks
let note r line = r.notes <- line :: r.notes

(* An exact counter: reported like any metric and also recorded in the
   determinism fingerprint. *)
let exact r name value unit_ =
  metric r name value unit_;
  r.exact <- (name, value) :: r.exact

let value r name =
  List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.metrics

let ops r ~attempted ~failed =
  r.attempted <- attempted;
  r.failed <- failed

(* One run's report from its repetitions: each metric is the median over
   the repetitions, except those in [first_only] (the heap's high-water
   mark, which only a fresh process reads truly), which come from the
   first.  Checks and op counts cover every repetition. *)
let combine r reps ~first_only =
  let first = List.hd reps in
  List.iter
    (fun (name, v1, u) ->
      let values = Array.of_list (List.map (fun rep -> Option.get (value rep name)) reps) in
      metric r name (if List.mem name first_only then v1 else Probe.median values) u)
    (List.rev first.metrics);
  r.exact <- first.exact;
  r.notes <- first.notes;
  List.iter
    (fun (name, _, detail) ->
      let failed =
        List.find_map
          (fun rep ->
            List.find_map
              (fun (n, ok, d) -> if n = name && not ok then Some d else None)
              rep.checks)
          reps
      in
      match failed with
      | Some d -> check r name false d
      | None -> check r name true detail)
    (List.rev first.checks);
  r.attempted <- List.fold_left (fun a rep -> a + rep.attempted) 0 reps;
  r.failed <- List.fold_left (fun a rep -> a + rep.failed) 0 reps

let correct r = List.for_all (fun (_, ok, _) -> ok) r.checks

(* JSON numbers: every digit as measured; non-finite values are a bug in
   the benchmark and are refused rather than written. *)
let json_number v =
  if not (Float.is_finite v) then invalid_arg "Report.json_number: non-finite value";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_table r =
  Printf.printf "== %s ==\n" r.workload;
  List.iter print_endline (List.rev r.notes);
  List.iter
    (fun (name, v, u) -> Printf.printf "  %-36s %16.6g %s\n" name v u)
    (List.rev r.metrics);
  Printf.printf "  ops: attempted %d, failed %d\n" r.attempted r.failed;
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "  check %-30s %s%s\n" name
        (if ok then "ok" else "FAILED")
        (if detail = "" then "" else "  (" ^ detail ^ ")"))
    (List.rev r.checks)

(* The last line of standard output: every metric measured, the names of
   the exact counters among them, and the outcome.  run.py narrows it to
   the names BENCHMARK.json lists. *)
let json r =
  let metric (name, v, u) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"exact\": [%s], \"metrics\": {%s}}"
    (correct r) r.attempted r.failed
    (String.concat ", " (List.rev_map (fun (n, _) -> Printf.sprintf "%S" n) r.exact))
    (String.concat ", " (List.rev_map metric r.metrics))
