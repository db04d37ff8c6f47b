(* The benchmark's measuring program.  run.py builds and runs it:

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]

   It prints a table of everything measured and, as its last line, one
   JSON object with every metric, which run.py narrows to the names
   BENCHMARK.json lists.  Exit code 77: the workload could not run here
   (dp-udp without loopback sockets) and reports nothing. *)

let workloads = [ "ctl-churn-join"; "dp-sim-flood"; "dp-udp" ]

let () =
  let workload = ref "" and seed = ref 2009 and seconds = ref 20. in
  let trace = ref 0 and spans = ref "" in
  let usage =
    "main.exe --workload {" ^ String.concat "|" workloads
    ^ "} [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 2009)");
      ("--seconds", Arg.Set_float seconds, "S measured window scale (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--spans", Arg.Set_string spans, "FILE where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload workloads)) || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 and seed = !seed and seconds = !seconds in
  Probe.tracing := traced;
  let r = Report.create !workload in
  let sim p =
    if traced then Sim.run_traced r p ~seed
    else ignore (Sim.run_plain r p ~seed ~reps:Sim.reps : Sim.plain)
  in
  (match !workload with
  | "ctl-churn-join" -> sim (Sim.ctl_churn_join ~seconds)
  | "dp-sim-flood" -> sim (Sim.dp_sim_flood ~seconds)
  | _ -> (
      try
        if traced then Udp.run_traced r ~seed ~seconds
        else ignore (Udp.run_plain r ~seed ~seconds ~reps:Udp.reps : Udp.plain)
      with Udp.Sockets_unavailable why ->
        Printf.eprintf "dp-udp: SKIPPED, loopback sockets unavailable (%s)\n" why;
        exit 77));
  if traced && !spans <> "" then Probe.write_spans !spans;
  Report.print_table r;
  print_endline (Report.json r)
