(* The codec lives with the UDP transport that speaks it; [perfbench/]
   still reaches it by this path. *)
include Apor_deploy.Packet
