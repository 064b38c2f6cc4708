(** Attack campaigns: the quantitative experiments behind the paper's
    comparative claims.

    Every campaign drives the single-bus car
    ({!Secpol_vehicle.Segment_map.single_bus_spec}); the enforcement level
    is its {!Secpol_vehicle.Topology_car.placement}: [`Unfiltered] (no
    enforcement), [`Central] (software acceptance filters) or
    [`Distributed] (HPEs provisioned from the least-privilege baseline
    policy).

    - {!run_level} / {!table}: all sixteen Table-I scenarios under one
      enforcement level (experiment Q1).  The paper's expectation: with no
      enforcement every attack lands; with the HPE and the least-privilege
      baseline policy, exactly the residual (W/RW) rows survive.
    - {!firmware_sweep}: containment as node firmware compromise spreads
      (experiment Q3).  Software acceptance filters sit in firmware, so
      they vanish with the nodes; the locked HPE does not.
    - {!benign_run}: false-block measurement on clean traffic
      (experiment Q4). *)

val level_name : Secpol_vehicle.Topology_car.placement -> string
(** The enforcement level's name in the paper's terms: "no enforcement",
    "software filters", "hardware policy engine". *)

type summary = {
  placement : Secpol_vehicle.Topology_car.placement;
  outcomes : Scenarios.outcome list;
  succeeded : int;
  residual_succeeded : int;  (** successes on W/RW rows *)
  clean_succeeded : int;  (** successes on R rows *)
}

val run_level : ?seed:int64 -> Secpol_vehicle.Topology_car.placement -> summary

val table : ?seed:int64 -> unit -> summary list
(** All three levels. *)

val matches_paper : summary list -> bool
(** The reproduction criterion: under [`Unfiltered] every scenario
    succeeds; under [`Distributed] the R rows are all blocked and the W/RW
    rows all remain (the paper's residual-risk cases). *)

type sweep_point = {
  compromised : int;  (** number of compromised nodes *)
  attack_frames : int;  (** forged frames attempted *)
  delivered : int;  (** forged frames accepted by some victim *)
}

val firmware_sweep :
  ?seed:int64 ->
  ?frames_per_node:int ->
  Secpol_vehicle.Topology_car.placement ->
  compromised_counts:int list ->
  sweep_point list
(** For each count, compromise that many nodes (deterministically shuffled
    by [seed]), let each forge [frames_per_node] (default 20) command
    frames it is not designed to produce, and measure deliveries. *)

type benign_stats = {
  seconds : float;
  deliveries : int;  (** frames accepted by designed consumers *)
  hpe_blocks : int;
      (** false HPE blocks on clean traffic
          ({!Secpol_vehicle.Topology_car.false_blocks_in}) *)
  undelivered : int;
      (** designed deliveries missing vs the [`Unfiltered] baseline *)
}

val benign_run :
  ?seed:int64 ->
  ?seconds:float ->
  Secpol_vehicle.Topology_car.placement ->
  benign_stats
(** Clean traffic only.  Under [`Distributed] the reproduction expects
    [hpe_blocks = 0] and [undelivered = 0]: least privilege must not break
    legitimate function. *)

val pp_summary : Format.formatter -> summary -> unit
