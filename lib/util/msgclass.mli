(** Traffic classes of overlay messages.

    Lives in [apor_util] — below both the simulator and the protocol
    core — so that the sans-IO protocol layer, the trace subsystem and
    the simulator's bandwidth accounting can all agree on the
    classification without the protocol core depending on the simulator.
    {!Apor_sim.Traffic.cls} re-exports this type. *)

type t =
  | Probe       (** probes and probe replies *)
  | Routing     (** link-state announcements and recommendations *)
  | Membership  (** membership traffic *)
  | Data        (** application packets forwarded over the overlay *)

val all : t list
(** In declaration order. *)

val count : int

val index : t -> int
(** Stable dense index in [0, count). *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
