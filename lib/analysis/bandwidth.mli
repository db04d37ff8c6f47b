(** Closed-form bandwidth models (Section 6.1).

    Two levels of fidelity:

    + the {e paper's} asymptotic expressions, reproduced verbatim —
      [49.1 n] bps of probing, [1.6 n^2 + 24.5 n] bps of full-mesh routing
      and [6.4 n sqrt n + 17.1 n + 196.3 sqrt n] bps of quorum routing
      (all incoming + outgoing, at the default 30 s / 30 s / 15 s timers);
    + an {e exact} per-configuration model that walks the actual grid
      degrees and message sizes, against which the simulator's measured
      traffic is tested to agree within a few percent.

    The paper's capacity claims (a 56 Kbps budget carries 165 full-mesh
    nodes vs ~300 quorum nodes; all 416 PlanetLab sites cost 307 vs
    86 Kbps) fall out of [max_nodes_within] and [total_bps]. *)

type algorithm = Apor_overlay_core.Config.algorithm = Full_mesh | Quorum

val probing_bps : n:int -> float
(** Paper expression: [49.1 n]. *)

val routing_bps : algorithm -> n:int -> float
(** Paper expressions for routing traffic (in + out) per node. *)

val total_bps : algorithm -> n:int -> float
(** probing + routing. *)

val probing_bps_exact : config:Apor_overlay_core.Config.t -> n:int -> float
(** From first principles: probes and replies of
    {!Apor_linkstate.Overhead.probe_bytes} to [n - 1] peers per probing
    interval, both directions. *)

val routing_bps_exact : config:Apor_overlay_core.Config.t -> n:int -> float
(** Exact expected steady-state routing traffic per node (averaged over
    nodes — grid degrees differ by position), assuming no failures and no
    packet loss. *)

val max_nodes_within : algorithm -> budget_bps:float -> int
(** Largest [n] whose [total_bps] fits the budget. *)

val crossover_factor : n:int -> float
(** Routing-traffic ratio full-mesh / quorum at [n] — the "saving factor"
    of Section 6 (~14 * sqrt n / ... the paper quotes a factor ~2.3 at
    n = 140 for routing alone). *)
