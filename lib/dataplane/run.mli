(** Canned data-plane runs: build a runtime, attach a workload, run,
    check invariants, report — the engine behind [apor traffic] and the
    dataplane bench/CI gates.

    One run body, written over {!Apor_overlay_core.Host.S}, serves both
    runtimes: start the overlay, attach the {!Driver} at the end of the
    warmup, stop it at the horizon, drain, then check conservation.  Both
    runs attach the full oracle (quorum intersection, one-hop optimality,
    traffic conservation) plus the datagram-conservation check, and fold
    the verdicts into the report.  Rates are over [warmup, horizon].  The
    sim run is byte-deterministic: equal arguments produce byte-identical
    [json]. *)

type report = {
  json : string;  (** one JSON object, newline-terminated *)
  sent : int;
  delivered : int;
  goodput_kbps : float;
  violations : int;  (** all oracle violations *)
  conservation_violations : int;
      (** traffic- plus datagram-conservation violations only — the gate
          CI trips on (quorum breaks under injected churn are expected;
          losing bytes or datagrams never is) *)
}

val run_sim :
  ?n:int ->
  ?seed:int ->
  ?duration_s:float ->
  ?warmup_s:float ->
  ?spec:Workload.spec ->
  ?churn:bool ->
  unit ->
  report
(** Virtual-time run on {!Apor_overlay.Cluster} (defaults: n = 144,
    seed = 1, 300 virtual seconds after a 120 s warmup, the default
    workload, no churn).  [churn] installs the PlanetLab failure
    profile.  The drain is 5 virtual seconds. *)

val run_udp :
  ?n:int ->
  ?seed:int ->
  ?duration_s:float ->
  ?warmup_s:float ->
  ?base_port:int ->
  ?spec:Workload.spec ->
  unit ->
  (report, [ `Sockets_unavailable of string ]) result
(** Wall-clock run on {!Apor_deploy.Udp_runtime} over loopback
    (defaults: n = 8, seed = 1, 6 s of traffic after a 3 s control-plane
    warmup, base port 9400), with the deploy-local compressed protocol
    timescales and a 0.5 s drain. *)
