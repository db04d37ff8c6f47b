(** A whole overlay on a simulated network: the in-system emulation of
    Section 6, and the simulator's {!Apor_overlay_core.Host.S}.

    Builds the network, engine and nodes, wires message dispatch, and
    exposes the queries the benches sample.  With [Static] membership
    every node receives the full member view at time zero — the
    steady-state configuration all the paper's measurements run in.  With
    [Dynamic] membership nodes run the quorum-replicated protocol
    ([lib/membership]). *)

open Apor_sim
open Apor_overlay_core

type membership =
  | Static
  | Dynamic of { initial : int; rtt_ms : float }
      (** The first [initial] ports are genesis members live at {!start};
          the remaining [n - initial] are pending joiners admitted on
          {!join_node}.  [rtt_ms] is unused: it sized the links of the
          retired membership coordinator. *)

type t

val create :
  config:Config.t ->
  rtt_ms:float array array ->
  ?loss:float array array ->
  ?membership:membership ->
  ?trace:Apor_trace.Collector.t ->
  ?scheduler:Engine.scheduler ->
  seed:int ->
  unit ->
  t
(** [rtt_ms]/[loss] cover the [n] overlay nodes.  A [trace] collector is
    pointed at the engine's virtual clock and receives every engine event
    (send/deliver/drop) plus every node's protocol events; attach sinks,
    subscribers or an {!Apor_trace.Oracle} to it before calling {!start}.
    [scheduler] selects the engine's queue backend (default [Calendar]);
    both backends produce identical event orders, so this only matters for
    determinism regressions and perf comparisons.
    @raise Invalid_argument on malformed matrices. *)

val n : t -> int
(** Number of overlay nodes. *)

val engine : t -> Message.t Engine.t

val engine_stats : t -> Engine.stats
(** Profiling counters of the underlying engine. *)

val network : t -> Network.t

val traffic : t -> Traffic.t

val node : t -> int -> Node.t
(** @raise Invalid_argument for an out-of-range port. *)

val start : t -> unit
(** Start every initially-live node.  With [Dynamic] membership, pending
    joiners stay dormant until {!join_node}. *)

val join_node : t -> int -> unit
(** Wake a pending joiner: it runs the quorum join protocol until
    admitted.  Idempotent.
    @raise Invalid_argument unless [Dynamic] was given and [port] is in
    [\[initial, n)]. *)

val run_until : t -> float -> unit

val now : t -> float

val best_hop : t -> src:int -> dst:int -> int option

val node_core : t -> int -> Node_core.t

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** An engine timer at an absolute virtual time (clamped to now). *)

val link_up : t -> int -> int -> bool
(** The network's current liveness of the link (crashes are isolation). *)

val accounted_bytes : t -> int -> int
(** Every class of traffic the engine charged to the node, in + out. *)

val stretch_baseline : t -> origin:int -> dst:int -> float option
(** Always known: half the direct link's current RTT. *)

val freshness : t -> src:int -> dst:int -> float option

val routing_kbps : t -> node:int -> t0:float -> t1:float -> float
(** Routing traffic only (link-state + recommendations), in + out — the
    quantity Figures 9 and 10 plot. *)

val routing_max_window_kbps : t -> node:int -> window:float -> t0:float -> t1:float -> float

val total_kbps : t -> node:int -> t0:float -> t1:float -> float
(** All classes: probing + routing + membership + data. *)

(** {1 Data plane}

    Best-effort application packets riding the overlay's one-hop routes —
    what the routing machinery exists for.  Used by the availability
    experiment comparing direct Internet paths against overlay paths under
    failures. *)

val send_data : t -> src:int -> dst:int -> int
(** Originate a packet at [src] addressed to [dst], forwarded along best
    hops; returns its id. *)

val send_data_direct : t -> src:int -> dst:int -> int
(** Send a packet over the direct virtual link only (no overlay routing):
    the baseline a non-overlay application gets. *)

val data_delivered_at : t -> int -> float option
(** Virtual time a packet reached its destination, if it did. *)

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
(** Install the data-plane forwarder: every {!Message.Dgram} arriving at
    any node is handed to the sink, field by field, at the transport
    boundary instead of the node's protocol core.  [node] is the
    receiving port.  At most one sink is active. *)

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
(** Put a user datagram on the virtual wire from [src] to [next] (one
    transport hop, normal loss/latency sampling and [Data]-class traffic
    accounting).  @raise Invalid_argument out of range. *)
