(* The codec layer: [Message], [Frame] and [Packet] timed over a run's own
   message and datagram mix.  Each figure is the median of three timed
   passes over the whole sample, per item, so no per-call clock read
   distorts it.  A round trip that does not reproduce its input fails the
   run: the codecs must stay total and exact. *)

module Message = Apor_overlay_core.Message
module Frame = Apor_deploy.Frame
module Packet = Apor_dataplane.Packet
module Workload = Apor_dataplane.Workload
module Rng = Apor_util.Rng

let max_sample = 50_000

let ns_per_item items f =
  let n = Array.length items in
  if n = 0 then 0.
  else begin
    let pass () =
      let a = Probe.mono_ns () in
      Array.iter f items;
      float_of_int (Probe.mono_ns () - a) /. float_of_int n
    in
    Probe.median [| pass (); pass (); pass () |]
  end

(* [msgs] are [(sender port, message)] pairs. *)
let messages r (msgs : (int * Message.t) array) =
  Probe.span "codec.message" @@ fun () ->
  let encoded = Array.map (fun (_, m) -> Message.encode m) msgs in
  let framed = Array.map (fun (src, m) -> Frame.encode ~src_port:src m) msgs in
  let bad = ref 0 in
  Array.iteri
    (fun i (src, m) ->
      (match Message.decode encoded.(i) with
      | Ok m' when Message.equal m m' -> ()
      | Ok _ | Error _ -> incr bad);
      match Frame.decode framed.(i) with
      | Ok (src', m') when src' = src && Message.equal m m' -> ()
      | Ok _ | Error _ -> incr bad)
    msgs;
  Report.check r "codec round trip (messages)" (!bad = 0)
    (Printf.sprintf "%d messages, %d bad" (Array.length msgs) !bad);
  Report.metric r "codec.message_encode_ns"
    (ns_per_item msgs (fun (_, m) -> ignore (Message.encode m)))
    "ns";
  Report.metric r "codec.message_decode_ns"
    (ns_per_item encoded (fun b -> ignore (Message.decode b)))
    "ns";
  Report.metric r "codec.frame_decode_ns"
    (ns_per_item framed (fun b -> ignore (Frame.decode b)))
    "ns"

let packets r (pkts : Packet.t array) =
  Probe.span "codec.packet" @@ fun () ->
  let encoded = Array.map Packet.encode pkts in
  let bad = ref 0 in
  Array.iteri
    (fun i p ->
      match Packet.decode encoded.(i) with
      | Ok p' when Packet.equal p p' -> ()
      | Ok _ | Error _ -> incr bad)
    pkts;
  Report.check r "codec round trip (packets)" (!bad = 0)
    (Printf.sprintf "%d packets, %d bad" (Array.length pkts) !bad);
  let buf = Bytes.create Apor_deploy.Udp_runtime.data_mtu in
  Report.metric r "codec.packet_encode_ns"
    (ns_per_item pkts (fun p -> Packet.encode_into p buf ~pos:0))
    "ns";
  Report.metric r "codec.packet_decode_ns"
    (ns_per_item encoded (fun b ->
         ignore (Packet.decode_from b ~pos:0 ~limit:(Bytes.length b))))
    "ns"

(* At most [max_sample] items, evenly strided, in order. *)
let subsample items =
  let n = Array.length items in
  let stride = max 1 ((n + max_sample - 1) / max_sample) in
  Array.init ((n + stride - 1) / stride) (fun i -> items.(i * stride))

(* The datagrams a workload originates from [t0]: the drivers' private RNG
   stream and draw order (pair, then gap), so the mix is the run's own. *)
let datagram_mix ~(spec : Workload.spec) ~n ~seed ~t0 ~count =
  let gen = Workload.create ~spec ~n ~rng:(Rng.split (Rng.make ~seed) "dataplane.workload") in
  let now = ref t0 in
  Array.init count (fun id ->
      let origin, dst = Workload.pick_pair gen in
      let p =
        {
          Packet.id;
          origin;
          dst;
          hops = 0;
          sent_at_us = int_of_float (!now *. 1e6);
          payload_len = spec.Workload.payload_bytes;
        }
      in
      now := !now +. Workload.next_delay gen ~now:!now;
      p)
