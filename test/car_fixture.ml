(* Cars shared by the test executables.  The single-bus car is the
   paper's Fig. 2 car (all eight ECUs on one bus) and defaults to software
   filters ([`Central]); the two-segment car is the §V gateway guideline's
   powertrain/comfort split with gateway whitelists only. *)

module V = Secpol_vehicle
module Tcar = V.Topology_car
module Segment_map = V.Segment_map

let single_bus ?seed ?corrupt_prob ?driving ?(placement = `Central) ?policy ()
    =
  Tcar.create ?seed ?corrupt_prob ?driving ~placement ?policy
    ~spec:(Segment_map.single_bus_spec ())
    ()

let two_segment ?driving () =
  Tcar.create ?driving ~placement:`Central
    ~spec:(Segment_map.two_segment_spec ())
    ()
