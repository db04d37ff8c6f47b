(* Dump a traced churn run as one JSON line per event, plus per-node byte
   totals and engine counters.  Two builds of the tree writing identical
   dumps for the same seed is the refactoring acceptance check: the
   protocol behaved event-for-event the same.

   Usage: trace_dump [n] [horizon] [seed] [out-file]  *)

open Apor_sim
open Apor_topology
open Apor_overlay
open Apor_overlay_core
open Apor_trace

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  let n = int_of_string (arg 1 "49") in
  let horizon = float_of_string (arg 2 (if n <= 49 then "300" else "120")) in
  let seed = int_of_string (arg 3 "2009") in
  let out = arg 4 (Printf.sprintf "trace-n%d.jsonl" n) in
  let world = Internet.generate ~seed ~n () in
  let tr = Collector.create () in
  let oc = open_out out in
  Collector.subscribe tr (fun tv ->
      Printf.fprintf oc "{\"t\":%.17g,%s}\n" tv.Collector.time
        (Event.to_json tv.Collector.event));
  let c =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:world.Internet.rtt_ms
      ~loss:world.Internet.loss ~trace:tr ~seed ()
  in
  let (_ : Failures.t) =
    Failures.install ~engine:(Cluster.engine c) ~profile:Failures.planetlab ~seed ()
  in
  Cluster.start c;
  Cluster.run_until c horizon;
  let traffic = Cluster.traffic c in
  for node = 0 to n - 1 do
    let bytes =
      List.fold_left
        (fun acc cls -> acc + Traffic.bytes_in_range traffic ~cls ~node ~t0:0. ~t1:horizon)
        0 Traffic.all_classes
    in
    Printf.fprintf oc "{\"node\":%d,\"bytes\":%d}\n" node bytes
  done;
  let st = Cluster.engine_stats c in
  Printf.fprintf oc
    "{\"events\":%d,\"sends\":%d,\"delivers\":%d,\"drops\":%d,\"max_pending\":%d}\n"
    st.Engine.events st.Engine.sends st.Engine.delivers st.Engine.drops
    st.Engine.max_pending;
  close_out oc;
  Printf.printf "wrote %s (%d events)\n" out (Collector.total tr)
