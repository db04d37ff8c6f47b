(** A whole overlay hosted on one runtime: what the layers above
    {!Node_core} — the data-plane driver, the chaos runner and the canned
    traffic runs — need from it.

    Two runtimes satisfy it: [Apor_overlay.Cluster] (the discrete-event
    simulator, virtual time) and [Apor_deploy.Udp_runtime] (loopback UDP
    sockets, wall-clock seconds since creation).  Code written once over
    [S] runs the same on both, as the paper's emulation runs the same
    implementation as its deployment.  Ports are [0 .. n-1]. *)

module type S = sig
  type t

  val n : t -> int

  val now : t -> float
  (** The runtime's clock, in seconds. *)

  val start : t -> unit
  (** Boot every initially-live node. *)

  val run_until : t -> float -> unit
  (** Run until the clock reads at least the given time.  Every timer due
      at or before it has fired, in time order, when this returns. *)

  val schedule_at : t -> time:float -> (unit -> unit) -> unit
  (** Arm a host-level timer (not tied to any node) at an absolute time;
      a time in the past fires as soon as possible.  Timers due at the
      same time fire in the order they were armed. *)

  val node_core : t -> int -> Node_core.t
  (** Node [i]'s protocol state machine, for queries. *)

  val join_node : t -> int -> unit
  (** Wake pending joiner [i] (dynamic membership).  Idempotent. *)

  val link_up : t -> int -> int -> bool
  (** Would a packet between the two nodes get through {e right now}?
      The instantaneous liveness availability scoring reads: false while
      the link is forced down or either end is isolated or killed.  Loss
      is ignored — a lossy link is degraded, not down. *)

  val accounted_bytes : t -> int -> int
  (** Bytes charged to node [i] so far, in and out, every traffic class
      — the transport side of the oracle's traffic-conservation check. *)

  val stretch_baseline : t -> origin:int -> dst:int -> float option
  (** The one-way latency of the direct path [origin -> dst] in seconds,
      the denominator of stretch, if the host knows it. *)

  (** {1 User datagrams}

      The six datagram fields travel as arguments, never as a record of
      their own: [id] is unique per run, [origin]/[dst] are the ends,
      [hops] the overlay forwards so far, [sent_at_us] the origination
      time in microseconds and [payload] the payload length in bytes. *)

  val send_dgram :
    t ->
    src:int ->
    next:int ->
    id:int ->
    origin:int ->
    dst:int ->
    hops:int ->
    sent_at_us:int ->
    payload:int ->
    unit
  (** Put one datagram on the wire from node [src] to node [next] (one
      transport hop), charged as [Data]-class traffic. *)

  val set_dgram_sink :
    t ->
    (now:float ->
    node:int ->
    id:int ->
    origin:int ->
    dst:int ->
    hops:int ->
    sent_at_us:int ->
    payload:int ->
    unit) ->
    unit
  (** Install the data-plane forwarder: every datagram arriving at any
      node is handed to it, [node] being the receiver.  At most one sink
      is active. *)
end
