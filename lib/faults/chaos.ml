module Tcar = Secpol_vehicle.Topology_car
module Segment_map = Secpol_vehicle.Segment_map

type outcome = {
  harness : Harness.t;
  checker : Invariant.t;
  report : Secpol_policy.Json.t;
  passed : bool;
}

let run ?(watchdog_period = 0.01) ?(watchdog_deadline = 0.05) ?(slice = 0.05)
    ~seed ~plan () =
  if slice <= 0.0 then invalid_arg "Chaos.run: slice must be positive";
  let harness =
    Harness.create ~watchdog_period ~watchdog_deadline ~seed ~plan ()
  in
  let checker = Invariant.create harness in
  let horizon = plan.Plan.horizon in
  let rec step at =
    if at < horizon then begin
      Harness.run_until harness at;
      Invariant.check checker;
      step (at +. slice)
    end
  in
  step slice;
  Harness.run_until harness horizon;
  (* same car and seed: the reference run is the faulted run minus the
     plan, so end-state comparison is meaningful *)
  let reference =
    Tcar.create ~seed ~placement:`Distributed
      ~spec:(Segment_map.single_bus_spec ())
      ()
  in
  Tcar.run reference ~seconds:horizon;
  Invariant.finalize checker ~reference;
  let report = Report.build ~seed ~harness ~checker in
  { harness; checker; report; passed = Invariant.ok checker }
