(* User-traffic data plane: datagrams over recommended one-hop paths on
   both runtimes (lib/dataplane), with the oracle attached.  The
   simulator leg is the BENCH_core.json "datagrams/s" source; the UDP
   leg is a live-socket sanity check, skipped where loopback sockets are
   unavailable. *)

open Apor_util

let section title =
  Printf.printf "\n==================== %s ====================\n" title

type sim_point = {
  dp_n : int;
  dp_sim_s : float;
  dp_sent : int;
  dp_delivered : int;
  dp_goodput_kbps : float;
  dp_wall_s : float;
  dp_dgrams_per_wall_s : float;
}

let measure_sim ~n ~seed ~duration_s =
  let wall0 = Unix.gettimeofday () in
  let r = Apor_dataplane.Run.run_sim ~n ~seed ~duration_s ~churn:true () in
  let wall_s = Unix.gettimeofday () -. wall0 in
  if r.Apor_dataplane.Run.conservation_violations > 0 then
    failwith "dataplane bench: conservation violations on the simulator";
  {
    dp_n = n;
    dp_sim_s = duration_s;
    dp_sent = r.Apor_dataplane.Run.sent;
    dp_delivered = r.Apor_dataplane.Run.delivered;
    dp_goodput_kbps = r.Apor_dataplane.Run.goodput_kbps;
    dp_wall_s = wall_s;
    dp_dgrams_per_wall_s = float_of_int r.Apor_dataplane.Run.sent /. Float.max 1e-9 wall_s;
  }

let run ~quick ~seed =
  section "Data plane: user datagrams over recommended one-hop paths";
  let sizes = if quick then [ 32 ] else [ 49; 144 ] in
  let duration_s = if quick then 60. else 120. in
  Printf.printf
    "open-loop constant load (200 pps, 64 B payloads, uniform matrix),\n\
     PlanetLab churn, oracle attached; datagrams/s is wall-clock throughput\n\
     of the whole simulation including the control plane.\n";
  let table =
    Texttable.create
      ~header:
        [ "n"; "sim_s"; "sent"; "delivered"; "loss"; "goodput kbps"; "wall_s"; "dgrams/s" ]
  in
  List.iter
    (fun n ->
      let p = measure_sim ~n ~seed ~duration_s in
      Texttable.add_row table
        [
          string_of_int p.dp_n;
          Printf.sprintf "%.0f" p.dp_sim_s;
          string_of_int p.dp_sent;
          string_of_int p.dp_delivered;
          Printf.sprintf "%.4f"
            (float_of_int (p.dp_sent - p.dp_delivered) /. float_of_int (max 1 p.dp_sent));
          Printf.sprintf "%.1f" p.dp_goodput_kbps;
          Printf.sprintf "%.2f" p.dp_wall_s;
          Printf.sprintf "%.0f" p.dp_dgrams_per_wall_s;
        ])
    sizes;
  Texttable.print table;
  Printf.printf "\nreal sockets (loopback UDP, n=8, compressed timescales)...\n%!";
  match Apor_dataplane.Run.run_udp ~n:8 ~seed ~base_port:9600 () with
  | Error (`Sockets_unavailable e) -> Printf.printf "udp: sockets unavailable (%s); skipping\n" e
  | Ok r ->
      print_string r.Apor_dataplane.Run.json;
      if r.Apor_dataplane.Run.conservation_violations > 0 then
        failwith "dataplane bench: conservation violations over real sockets";
      if r.Apor_dataplane.Run.goodput_kbps <= 0. then
        failwith "dataplane bench: zero goodput over real sockets"
