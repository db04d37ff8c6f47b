(** {!Driver} on loopback UDP. *)

type t

val attach :
  udp:Apor_deploy.Udp_runtime.t ->
  spec:Workload.spec ->
  seed:int ->
  metrics:Metrics.t ->
  ?trace:Apor_trace.Collector.t ->
  ?start_at:float ->
  unit ->
  t

val sent : t -> int
val delivered : t -> int
val stop : t -> unit
