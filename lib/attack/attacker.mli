(** Attacker models.

    Two placements, following the paper's inside/outside distinction:
    - {!compromise}: take over an existing node's *firmware*.  Firmware can
      clear the controller's software acceptance filters and transmit
      arbitrary frames through its own controller — but it cannot remove
      the HPE gates, and a locked HPE register file refuses
      reconfiguration.
    - {!alien}: introduce a foreign station on a bus.  It has full
      control of its own (HPE-less) hardware, but victim-side read gates
      still apply to what it injects. *)

type t

val compromise : Secpol_vehicle.Topology_car.t -> string -> t
(** Compromise the named node's firmware: acceptance filters cleared,
    transmit path under attacker control. *)

val alien :
  Secpol_vehicle.Topology_car.t -> segment:string -> name:string -> t
(** Attach a new malicious station to the named segment's bus.
    @raise Invalid_argument on unknown segment names. *)

val node_name : t -> string

val send : t -> Secpol_can.Frame.t -> bool
(** Transmit a raw frame; [false] when refused locally (HPE write gate). *)

val spoof_command : t -> msg_id:int -> char -> bool
(** Forge a one-command frame for an arbitrary message ID. *)

val try_reconfigure_hpe : t -> (unit, string) result
(** Attempt to clear the node's HPE approved lists through its register
    file, as malicious firmware would.  [Ok] only against an unlocked (or
    absent) engine; absence reports [Ok] trivially with no effect. *)

val captured : t -> Secpol_can.Frame.t list
(** Frames observed on the bus since compromise (promiscuous capture for
    replay). *)

val replay : t -> ?filter:(Secpol_can.Frame.t -> bool) -> unit -> int
(** Retransmit captured frames (newest last); returns how many were
    accepted for transmission. *)
