(** The connected car: the ECU set on a CAN topology, with a placement
    switch for enforcement.

    Builds the full ECU set on a {!Secpol_can.Topology} graph with routing
    derived from the message map filtered by the policy.  The segment
    layout is a parameter: {!Segment_map.spec} (the default) is the
    four-segment star, {!Segment_map.single_bus_spec} is the paper's
    Fig. 2 car with all eight ECUs on one bus, and
    {!Segment_map.two_segment_spec} is the §V gateway guideline's
    powertrain/comfort split.  Enforcement is one axis — the DiSPEL
    none/central/distributed comparison as one flag:

    - [`Unfiltered]: the ECUs' acceptance filters are cleared and no HPE is
      installed — a device shipped with no security mechanism (and the
      state firmware compromise reduces the next level to).  Gateways, if
      any, still apply their whitelists.
    - [`Central]: enforcement lives only in the gateways' policy-derived
      ID whitelists plus stock ECU acceptance filters (the software
      filters of the single-bus car).  A forged frame whose ID
      legitimately crosses is forwarded regardless of origin — the per-ID
      residual weakness.
    - [`Distributed] (default): every node additionally carries a locked
      HPE provisioned from the policy for the current mode, so forged
      traffic is blocked at its source segment and spoofed IDs at the
      write gate.

    HPE configs for [Fail_safe] are cached at build time so degradation
    never depends on the policy engine answering. *)

type placement = [ `Unfiltered | `Central | `Distributed ]

val placement_name : placement -> string

val placement_of_name : string -> placement option
(** ["central"] or ["distributed"], the placements a segmented car is run
    at; [`Unfiltered] has no parsed name. *)

type t

val create :
  ?seed:int64 ->
  ?bitrate:float ->
  ?corrupt_prob:float ->
  ?driving:bool ->
  ?placement:placement ->
  ?policy:Secpol_policy.Ast.policy ->
  ?spec:Secpol_can.Topology.spec ->
  ?obs:Secpol_obs.Registry.t ->
  ?max_in_flight:int ->
  ?retry_backoff:float ->
  ?max_retries:int ->
  ?forward_timeout:float ->
  unit ->
  t
(** Build the car at simulation time 0.  [driving] (default [true]) starts
    in normal mode at speed, engine running.  [policy] defaults to
    {!Policy_map.baseline}; it drives the gateway routing and, under
    [`Distributed], the HPEs.  [corrupt_prob] is every bus's per-frame
    corruption probability (default 0).  The gateway bounds
    ([max_in_flight] etc.) apply to every gateway; defaults are
    {!Secpol_can.Gateway.connect}'s.  [obs] registers every segment bus
    (under [can.seg.<segment>.*], or [can.bus.*] on a one-segment spec),
    gateway, HPE and the policy engine in one registry; omit it and no
    telemetry work happens beyond each component's own counters. *)

val sim : t -> Secpol_sim.Engine.t

val topology : t -> Secpol_can.Topology.t

val placement : t -> placement

val state : t -> State.t

val node : t -> string -> Secpol_can.Node.t
(** @raise Invalid_argument on unknown node names. *)

val nodes : t -> (string * Secpol_can.Node.t) list

val hpes : t -> (string * Secpol_hpe.Engine.t) list
(** Node name and HPE, in build order; empty unless [`Distributed]. *)

val hpe : t -> string -> Secpol_hpe.Engine.t option
(** [None] for every node unless [`Distributed]. *)

val policy_engine : t -> Secpol_policy.Engine.t option
(** The engine the HPEs are provisioned from; [None] unless
    [`Distributed]. *)

val run : t -> seconds:float -> unit

val mode : t -> Modes.t

val set_mode : t -> Modes.t -> unit
(** Change operating mode.  The mode line enters each HPE as a hardware
    input: under [`Distributed] the engines are hard-reset and
    re-provisioned for the new mode (firmware is not involved and the lock
    is re-applied). *)

val enter_fail_safe : t -> reason:string -> unit
(** The degradation path (paper Table I's Fail-safe operating mode): latch
    [Fail_safe], log the reason, and re-provision every HPE from the
    fail-safe configs cached at build time.  Never consults the policy
    engine — this is the transition a watchdog takes precisely when the
    engine has stopped answering — and, because each register file is
    hard-reset and re-programmed, it also restores HPE integrity after
    register corruption.  Idempotent once in [Fail_safe]. *)

val segments : t -> string list

val segment_of : t -> string -> string option

val bus : t -> string -> Secpol_can.Bus.t
(** By segment name.  @raise Invalid_argument on unknown names. *)

val deliveries_in : t -> string -> int
(** Frames delivered to the segment's member nodes so far.
    @raise Invalid_argument on unknown segment names. *)

val total_deliveries : t -> int

val false_blocks_in : t -> string -> int
(** Enforcement blocks that hit designed traffic in one segment: HPE
    write-gate blocks at member nodes plus read-gate blocks of frames
    whose receiver is a designed consumer.  On a broadcast bus an HPE also
    drops frames its node never consumes; those are not false blocks.
    Always 0 unless [`Distributed]; the reproduction expects 0 on benign
    runs. *)
