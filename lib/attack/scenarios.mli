(** The sixteen Table-I threats as executable attack scenarios.

    Each scenario builds the single-bus car
    ({!Secpol_vehicle.Segment_map.single_bus_spec}) under the requested
    enforcement placement, establishes
    the row's preconditions (driving / parked / crashed / immobilised),
    mounts the attack from a concrete platform, and evaluates success
    against the vehicle state.

    Attack platforms follow the row's entry points: R-rows are mounted from
    a pivot node that is *not* a designed producer of the abused message
    (so least-privilege write filtering can block them), while the W/RW
    rows are mounted from a node that legitimately writes the abused
    message — the residual-risk cases the paper's coarse policies cannot
    stop. *)

type outcome = {
  threat_id : string;
  platform : string;  (** node the attack was mounted from *)
  succeeded : bool;  (** did the attack reach its goal state *)
  expected_residual : bool;  (** Table I marks this row W/RW (residual) *)
  detail : string;
}

type t

val car :
  ?driving:bool ->
  seed:int64 ->
  Secpol_vehicle.Topology_car.placement ->
  Secpol_vehicle.Topology_car.t
(** The car every scenario attacks: the paper's Fig. 2 car, all eight ECUs
    on one bus, at the given placement. *)

val all : t list
(** One scenario per Table-I row, in table order. *)

val find : string -> t option
(** By threat id. *)

val threat_id : t -> string

val description : t -> string

val run :
  ?seed:int64 -> placement:Secpol_vehicle.Topology_car.placement -> t -> outcome
(** Execute the scenario from scratch. *)

val run_all :
  ?seed:int64 ->
  placement:Secpol_vehicle.Topology_car.placement ->
  unit ->
  outcome list

val pp_outcome : Format.formatter -> outcome -> unit
