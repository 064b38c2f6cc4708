module Engine = Secpol_sim.Engine
module Obs = Secpol_obs
module Can = Secpol_can
module Hpe = Secpol_hpe
module Tcar = Secpol_vehicle.Topology_car
module Segment_map = Secpol_vehicle.Segment_map
module Modes = Secpol_vehicle.Modes
module State = Secpol_vehicle.State

type violation = { time : float; check : string; detail : string }

type t = {
  harness : Harness.t;
  mutable cursor : int; (* trace entries already examined *)
  mutable last_sent : int;
  mutable last_abandoned : int;
  mutable violations : violation list; (* newest first *)
}

let create harness =
  { harness; cursor = 0; last_sent = 0; last_abandoned = 0; violations = [] }

let violations t = List.rev t.violations

let ok t = t.violations = []

let fail t ~check detail =
  let time = Engine.now (Tcar.sim (Harness.car t.harness)) in
  t.violations <- { time; check; detail } :: t.violations

(* ---------- per-slice checks ---------- *)

let check_counters t =
  let bus = Tcar.bus (Harness.car t.harness) Segment_map.seg_bus in
  let sent = Can.Bus.frames_sent bus in
  let abandoned = Can.Bus.abandoned bus in
  let pending = Can.Bus.pending bus in
  if sent < t.last_sent then
    fail t ~check:"counters"
      (Printf.sprintf "frames_sent went backwards (%d -> %d)" t.last_sent sent);
  if abandoned < t.last_abandoned then
    fail t ~check:"counters"
      (Printf.sprintf "abandoned went backwards (%d -> %d)" t.last_abandoned
         abandoned);
  if pending > 10_000 then
    fail t ~check:"counters"
      (Printf.sprintf "%d frames pending: arbitration queue is diverging"
         pending);
  t.last_sent <- sent;
  t.last_abandoned <- abandoned

(* Every delivery at an HPE-guarded node must be on that node's approved
   reading list for the operating mode in force.  Frames completing in
   the same timestamp batch as a mode switch may have been gated under
   the outgoing mode, so a delivery is also accepted if the mode a
   millisecond earlier approved it. *)
let approved t ~node ~time msg_id =
  let approved_under mode =
    match Harness.config_for t.harness ~mode ~node with
    | None -> true (* no cached config: nothing to judge against *)
    | Some config -> List.mem msg_id config.Hpe.Config.read_ids
  in
  approved_under (Harness.mode_at t.harness time)
  || approved_under (Harness.mode_at t.harness (time -. 0.001))

let check_deliveries t =
  let car = Harness.car t.harness in
  let entries =
    Can.Trace.entries (Can.Bus.trace (Tcar.bus car Segment_map.seg_bus))
  in
  let fresh = List.filteri (fun i _ -> i >= t.cursor) entries in
  t.cursor <- List.length entries;
  List.iter
    (fun e ->
      match e.Can.Trace.event with
      | Can.Trace.Rx_delivered receiver when Tcar.hpe car receiver <> None ->
          let id = e.Can.Trace.frame.Can.Frame.id in
          let msg_id = Can.Identifier.raw id in
          if
            Can.Identifier.is_extended id
            || not (approved t ~node:receiver ~time:e.Can.Trace.time msg_id)
          then
            fail t ~check:"approved_rx"
              (Printf.sprintf "0x%03X delivered to %s at %.4fs outside its %s"
                 msg_id receiver e.Can.Trace.time "approved reading list")
      | _ -> ())
    fresh

let check_failsafe_deadline t =
  match Harness.stall_started t.harness with
  | None -> ()
  | Some stall_at -> (
      let now = Engine.now (Tcar.sim (Harness.car t.harness)) in
      let bound = Harness.failsafe_bound t.harness ~stall_at in
      match Harness.failsafe_entered t.harness with
      | Some entered when entered <= bound -> ()
      | Some entered ->
          fail t ~check:"failsafe_deadline"
            (Printf.sprintf
               "fail-safe entered at %.4fs, after the %.4fs bound" entered
               bound)
      | None ->
          if now > bound then
            fail t ~check:"failsafe_deadline"
              (Printf.sprintf
                 "policy engine stalled at %.4fs; still not fail-safe at \
                  %.4fs (bound %.4fs)"
                 stall_at now bound))

let check t =
  check_counters t;
  check_deliveries t;
  check_failsafe_deadline t

(* ---------- end-of-run checks ---------- *)

let state_fields (s : State.t) =
  [
    ("mode", Modes.name s.State.mode);
    ("ev_ecu_enabled", string_of_bool s.State.ev_ecu_enabled);
    ("engine_running", string_of_bool s.State.engine_running);
    ("eps_active", string_of_bool s.State.eps_active);
    ("doors_locked", string_of_bool s.State.doors_locked);
    ("alarm_armed", string_of_bool s.State.alarm_armed);
    ("modem_enabled", string_of_bool s.State.modem_enabled);
    ("tracking_enabled", string_of_bool s.State.tracking_enabled);
    ("failsafe_latched", string_of_bool s.State.failsafe_latched);
    ("speed_kmh", Printf.sprintf "%.3f" s.State.speed_kmh);
    ("software_installs", string_of_int s.State.software_installs);
    ("emergency_calls", string_of_int s.State.emergency_calls);
  ]

let finalize t ~reference =
  check t;
  let car = Harness.car t.harness in
  if Plan.degrading (Harness.plan t.harness) then begin
    if Tcar.mode car <> Modes.Fail_safe then
      fail t ~check:"latched"
        (Printf.sprintf "degrading plan ended in %s, not fail-safe"
           (Modes.name (Tcar.mode car)));
    if not (Tcar.state car).State.failsafe_latched then
      fail t ~check:"latched" "fail-safe actions were never latched";
    if Harness.failsafe_entered t.harness = None then
      fail t ~check:"latched" "harness never recorded the fail-safe entry"
  end
  else
    (* every fault recovered: the run must land on the same steady state a
       never-faulted car reaches *)
    List.iter2
      (fun (name, faulted) (_, clean) ->
        if faulted <> clean then
          fail t ~check:"convergence"
            (Printf.sprintf "%s diverged: %s (faulted) vs %s (clean)" name
               faulted clean))
      (state_fields (Tcar.state car))
      (state_fields (Tcar.state reference))

(* ---------- blast-radius invariant (topology cars) ---------- *)

module Blast = struct
  module Topology = Can.Topology

  type bound = { max_pending : int; p99_ms : float; max_gateway_backlog : int }

  (* Pending and p99 are far above a healthy segment's steady state (a few
     frames, sub-millisecond) but far below what a saturated or severed
     segment exhibits, so drift towards the bound is a containment leak
     long before user-visible failure.  The gateway backlog bound is twice
     the default admission limit: a correctly bounded gateway can never
     reach it, an unbounded one under a babbling destination does. *)
  let default_bound =
    { max_pending = 512; p99_ms = 25.0; max_gateway_backlog = 128 }

  type seg_state = {
    seg : string;
    mutable last_deliveries : int;
    mutable last_false_blocks : int;
  }

  type t = {
    car : Tcar.t;
    bound : bound;
    faulted : unit -> string list;
        (* segments currently inside a blast region; monotone over a run *)
    states : seg_state list;
    mutable slices : int;
    mutable violations : violation list; (* newest first *)
  }

  let create ?(bound = default_bound) ~faulted car =
    {
      car;
      bound;
      faulted;
      states =
        List.map
          (fun seg -> { seg; last_deliveries = 0; last_false_blocks = 0 })
          (Tcar.segments car);
      slices = 0;
      violations = [];
    }

  let violations t = List.rev t.violations

  let ok t = t.violations = []

  let fail t ~check detail =
    let time = Engine.now (Tcar.sim t.car) in
    t.violations <- { time; check; detail } :: t.violations

  (* The containment obligation, checked every slice: outside the faulted
     region, queues stay bounded, delivery latency stays flat, frames keep
     arriving, and enforcement never starts blocking designed traffic.
     Inside the region anything goes — that segment is the blast. *)
  let check_segment t st =
    let bus = Tcar.bus t.car st.seg in
    let pending = Can.Bus.pending bus in
    if pending > t.bound.max_pending then
      fail t ~check:"blast_pending"
        (Printf.sprintf "segment %s: %d frames pending (bound %d)" st.seg
           pending t.bound.max_pending);
    let latency = Can.Bus.tx_latency bus in
    if Obs.Histogram.count latency > 0 then begin
      let p99 = Obs.Histogram.percentile latency 99.0 in
      if p99 > t.bound.p99_ms then
        fail t ~check:"blast_latency"
          (Printf.sprintf "segment %s: tx p99 %.2fms (bound %.2fms)" st.seg p99
             t.bound.p99_ms)
    end;
    let deliveries = Tcar.deliveries_in t.car st.seg in
    (* two warm-up slices before demanding progress: periodic traffic needs
       a moment to start crossing gateways *)
    if t.slices > 2 && deliveries <= st.last_deliveries then
      fail t ~check:"blast_liveness"
        (Printf.sprintf "segment %s: no deliveries this slice (stuck at %d)"
           st.seg deliveries);
    st.last_deliveries <- deliveries;
    let false_blocks = Tcar.false_blocks_in t.car st.seg in
    if false_blocks > st.last_false_blocks then
      fail t ~check:"blast_decisions"
        (Printf.sprintf
           "segment %s: %d new enforcement blocks on designed traffic" st.seg
           (false_blocks - st.last_false_blocks));
    st.last_false_blocks <- false_blocks

  let check t =
    t.slices <- t.slices + 1;
    let faulted = t.faulted () in
    List.iter
      (fun st ->
        if List.mem st.seg faulted then begin
          (* keep the baselines warm so a healed segment is not instantly
             flagged for history accumulated during the fault *)
          st.last_deliveries <- Tcar.deliveries_in t.car st.seg;
          st.last_false_blocks <- Tcar.false_blocks_in t.car st.seg
        end
        else check_segment t st)
      t.states;
    let topo = Tcar.topology t.car in
    List.iter
      (fun gw_name ->
        let gw = Topology.gateway topo gw_name in
        let backlog = Can.Gateway.in_flight gw in
        if backlog > t.bound.max_gateway_backlog then
          fail t ~check:"blast_gateway_backlog"
            (Printf.sprintf "gateway %s: %d forwards in flight (bound %d)"
               gw_name backlog t.bound.max_gateway_backlog))
      (Topology.gateway_names topo)
end
