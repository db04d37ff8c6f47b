(** The data plane, written once over any {!Apor_overlay_core.Host.S}.

    Attaching installs the host's datagram sink (the forwarder) and arms
    the workload's arrival timers; traffic then flows whenever the host
    runs.  Each datagram is originated along the source's {e current}
    recommendation — direct, or via the advised one-hop intermediate —
    and forwarded at the intermediate straight to the destination.  Every
    transport hop is a normal host send, so traffic accounting and the
    byte-conservation invariant hold without special cases; datagram
    lifecycle events ([Dgram_sent] …) additionally feed the oracle's
    datagram-conservation check.

    A datagram counts as delivered once: a second copy (a duplicated
    frame on UDP) or a copy arriving after its closed-loop flow gave up
    on it is ignored.  Stretch divides each delivery's latency by the
    host's {!Apor_overlay_core.Host.S.stretch_baseline} — the direct
    link's rtt/2 on the simulator; on UDP, which has no latency matrix,
    the fastest zero-hop trip seen for the pair, so pairs never seen
    direct contribute latency but no stretch sample.

    {!Sim_driver} and {!Udp_driver} are its two instances. *)

module Make (H : Apor_overlay_core.Host.S) : sig
  type t

  val attach :
    H.t ->
    spec:Workload.spec ->
    seed:int ->
    metrics:Metrics.t ->
    ?trace:Apor_trace.Collector.t ->
    ?start_at:float ->
    unit ->
    t
  (** Install the sink and schedule the first arrival at [start_at]
      (default: now).  [seed] derives the workload's private RNG stream
      (label ["dataplane.workload"]) — independent of the nodes' streams,
      so attaching a workload never perturbs protocol draws. *)

  val sent : t -> int
  (** Datagrams originated — the data plane's own count, compared against
      the trace by {!Apor_trace.Oracle.check_datagrams}. *)

  val delivered : t -> int

  val stop : t -> unit
  (** Stop originating new datagrams (in-flight ones still deliver). *)
end
