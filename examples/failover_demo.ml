(* Failure-recovery walk-through: the three scenarios of Figures 4-6.

   A 9-node overlay runs while a scripted scenario cuts the direct link,
   the best hop, and rendezvous servers out from under a (Src, Dst) pair;
   we log what Src believes at each step and when it recovers.

   Run with:  dune exec examples/failover_demo.exe *)

open Apor_overlay
open Apor_overlay_core
open Apor_topology

let n = 9
let src = 0
let dst = 8

let rtt_ms =
  let m = Array.make_matrix n n 300. in
  for i = 0 to n - 1 do
    m.(i).(i) <- 0.
  done;
  let set i j v =
    m.(i).(j) <- v;
    m.(j).(i) <- v
  in
  set src dst 800.;
  (* best hop 4, second-best 5 *)
  set src 4 100.;
  set 4 dst 100.;
  set src 5 120.;
  set 5 dst 120.;
  m

let describe cluster =
  let hop =
    match Cluster.best_hop cluster ~src ~dst with
    | Some h when h = dst -> "direct"
    | Some h -> Printf.sprintf "via %d" h
    | None -> "NO ROUTE"
  in
  let failovers =
    match Node.quorum_router (Cluster.node cluster src) with
    | Some r -> Router.active_failover_count r
    | None -> 0
  in
  Format.printf "  t=%4.0fs  route %d->%d: %-8s  active failovers: %d@."
    (Cluster.now cluster) src dst hop failovers

let run_scenario ~title ~events ~until =
  Format.printf "@.=== %s ===@." title;
  let cluster = Cluster.create ~config:Config.quorum_default ~rtt_ms ~seed:4 () in
  Scenario.install ~engine:(Cluster.engine cluster) events;
  List.iter
    (fun (t, action) -> Format.printf "  (scripted: %a at t=%.0fs)@." Scenario.pp_action action t)
    events;
  Cluster.start cluster;
  let rec walk t =
    if t <= until then begin
      Cluster.run_until cluster t;
      describe cluster;
      walk (t +. 30.)
    end
  in
  walk 180.

let () =
  Format.printf
    "Grid:@.  0 1 2@.  3 4 5@.  6 7 8@.\
     Src=0 and Dst=8 share rendezvous servers 2 and 6; best hop is 4.@.";
  run_scenario
    ~title:"Scenario 1 (Fig. 4a): direct and best-hop links fail"
    ~events:
      [ (200., Scenario.Link_down (src, dst)); (200., Scenario.Link_down (src, 4)) ]
    ~until:330.;
  run_scenario
    ~title:"Scenario 2 (Fig. 4b): both rendezvous links and direct fail"
    ~events:
      [
        (200., Scenario.Link_down (src, 2));
        (200., Scenario.Link_down (src, 6));
        (200., Scenario.Link_down (src, dst));
      ]
    ~until:360.;
  run_scenario
    ~title:"Scenario 3 (Fig. 4c): proximal + remote rendezvous + direct fail"
    ~events:
      [
        (200., Scenario.Link_down (src, 2));
        (200., Scenario.Link_down (6, dst));
        (200., Scenario.Link_down (src, dst));
      ]
    ~until:390.;
  Format.printf
    "@.In every scenario the overlay recovers the optimal surviving route@.\
     within a few routing intervals, as Section 4.1 predicts.@."
