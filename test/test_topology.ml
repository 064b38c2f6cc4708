(* Multi-segment topologies: spec validation, derived routing and its
   equivalence with flat-bus delivery, the central/distributed placement
   switch, and blast-radius containment under segment-scoped faults. *)

module V = Secpol_vehicle
module Can = Secpol_can
module F = Secpol_faults
module Engine = Secpol_sim.Engine
module Topology = Can.Topology
module Tcar = V.Topology_car
module Segment_map = V.Segment_map
module Fixture = Car_fixture
module Names = V.Names
module Messages = V.Messages
module State = V.State
module Node = Can.Node
module Frame = Can.Frame
module Identifier = Can.Identifier

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

(* ---------- Spec validation ---------- *)

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail ("accepted " ^ what)

let build ?(flows = []) spec =
  let sim = Engine.create () in
  Topology.create sim spec ~flows

let test_spec_validation () =
  expect_invalid "duplicate segment names" (fun () ->
      build
        { Topology.segments = [ ("a", [ "x" ]); ("a", [ "y" ]) ]; links = [] });
  expect_invalid "node in two segments" (fun () ->
      build
        {
          Topology.segments = [ ("a", [ "x" ]); ("b", [ "x" ]) ];
          links = [ ("g", ("a", "b")) ];
        });
  expect_invalid "link to unknown segment" (fun () ->
      build
        {
          Topology.segments = [ ("a", [ "x" ]); ("b", [ "y" ]) ];
          links = [ ("g", ("a", "nope")) ];
        });
  expect_invalid "cyclic segment graph" (fun () ->
      build
        {
          Topology.segments =
            [ ("a", [ "x" ]); ("b", [ "y" ]); ("c", [ "z" ]) ];
          links =
            [ ("g1", ("a", "b")); ("g2", ("b", "c")); ("g3", ("c", "a")) ];
        });
  expect_invalid "disconnected segment graph" (fun () ->
      build
        {
          Topology.segments =
            [ ("a", [ "x" ]); ("b", [ "y" ]); ("c", [ "z" ]) ];
          links = [ ("g1", ("a", "b")) ];
        });
  expect_invalid "flow from an unknown segment" (fun () ->
      build
        ~flows:[ { Topology.id = 0x100; src = "nope"; dsts = [ "a" ] } ]
        {
          Topology.segments = [ ("a", [ "x" ]); ("b", [ "y" ]) ];
          links = [ ("g", ("a", "b")) ];
        })

let test_derived_whitelists_and_route () =
  let topo =
    build
      ~flows:[ { Topology.id = 0x100; src = "a"; dsts = [ "b" ] } ]
      {
        Topology.segments = [ ("a", [ "x" ]); ("b", [ "y" ]) ];
        links = [ ("g", ("a", "b")) ];
      }
  in
  (* the flow crosses a -> b only; the reverse edge stays empty *)
  check
    Alcotest.(list int)
    "a->b carries the flow" [ 0x100 ]
    (Topology.crossing_ids topo ~gateway:"g" `A_to_b);
  check
    Alcotest.(list int)
    "b->a is empty" []
    (Topology.crossing_ids topo ~gateway:"g" `B_to_a);
  check
    Alcotest.(list string)
    "route follows the carrying edge" [ "a"; "b" ]
    (Topology.route topo ~src:"a" 0x100);
  check
    Alcotest.(list string)
    "no reverse route" [ "b" ]
    (Topology.route topo ~src:"b" 0x100);
  check
    Alcotest.(list string)
    "unknown id stays local" [ "a" ]
    (Topology.route topo ~src:"a" 0x7ff)

let test_components_blast_regions () =
  let sim = Engine.create () in
  let spec = Segment_map.spec () in
  let topo =
    Topology.create sim spec ~flows:(Segment_map.flows ~spec ())
  in
  let sorted comps =
    List.sort compare (List.map (List.sort compare) comps)
  in
  (* severing the infotainment gateway splits exactly that leaf off *)
  check
    Alcotest.(list (list string))
    "leaf cut off"
    (sorted
       [
         [
           Segment_map.seg_powertrain;
           Segment_map.seg_chassis;
           Segment_map.seg_telematics;
         ];
         [ Segment_map.seg_infotainment ];
       ])
    (sorted
       (Topology.components topo ~without:[ Segment_map.gw_infotainment ]));
  (match Topology.components topo ~without:[ "nope" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted an unknown gateway name")

(* ---------- The two-segment special case ---------- *)

let powertrain_nodes = Names.[ sensors; ev_ecu; eps; engine; safety ]

(* The two-segment whitelist by hand, from the message map alone: an ID
   crosses iff some designed producer and consumer sit on opposite sides.
   The reference the policy-derived gateway whitelist is checked
   against. *)
let crossing_ids () =
  let side node = List.mem node powertrain_nodes in
  Messages.all
  |> List.filter_map (fun (m : Messages.t) ->
         let crosses =
           List.exists
             (fun p -> List.exists (fun c -> side p <> side c) m.consumers)
             m.producers
         in
         if crosses then Some m.id else None)
  |> List.sort_uniq compare

let test_two_segment_matches_segmented () =
  let spec = Segment_map.two_segment_spec () in
  let sim = Engine.create () in
  let topo = Topology.create sim spec ~flows:(Segment_map.flows ~spec ()) in
  let union =
    List.sort_uniq compare
      (Topology.crossing_ids topo ~gateway:"gateway" `A_to_b
      @ Topology.crossing_ids topo ~gateway:"gateway" `B_to_a)
  in
  check
    Alcotest.(list int)
    "derived whitelist = historical crossing set" (crossing_ids ())
    union;
  (* and the two-segment car behaves: cross-segment telemetry reaches the
     display *)
  let car = Fixture.two_segment () in
  Tcar.run car ~seconds:1.0;
  match V.Infotainment.displayed_speed (Tcar.node car Names.infotainment) with
  | Some s -> check Alcotest.(float 0.01) "display shows 50" 50.0 s
  | None -> Alcotest.fail "telemetry never crossed the gateway"

(* ---------- Four-segment reference car ---------- *)

let test_four_segment_benign_function () =
  let car = Tcar.create () in
  Tcar.run car ~seconds:1.0;
  (* speed telemetry reaches the driver display over two hops:
     powertrain -> chassis backbone -> infotainment leaf *)
  (match V.Infotainment.displayed_speed (Tcar.node car Names.infotainment) with
  | Some s -> check Alcotest.(float 0.01) "display shows 50" 50.0 s
  | None -> Alcotest.fail "telemetry never crossed two gateways");
  check
    Alcotest.(list string)
    "accel route spans the star"
    [
      Segment_map.seg_powertrain;
      Segment_map.seg_chassis;
      Segment_map.seg_infotainment;
    ]
    (Topology.route (Tcar.topology car) ~src:Segment_map.seg_powertrain
       Messages.accel_status);
  List.iter
    (fun seg ->
      Alcotest.(check bool) (seg ^ " delivers") true
        (Tcar.deliveries_in car seg > 0);
      check Alcotest.int (seg ^ " false blocks") 0
        (Tcar.false_blocks_in car seg))
    (Tcar.segments car);
  (* the crash chain spans three segments: safety (chassis) locks state,
     door locks react, telematics places the call *)
  V.Safety.trigger_crash (Tcar.node car Names.safety) (Tcar.state car);
  Tcar.run car ~seconds:0.5;
  Alcotest.(check bool) "doors unlocked across segments" false
    (Tcar.state car).State.doors_locked;
  check Alcotest.int "emergency call placed" 1
    (Tcar.state car).State.emergency_calls

(* ---------- Placement: central vs distributed ---------- *)

(* eps_command is designed to cross powertrain -> chassis (ev_ecu -> eps),
   so its ID is on the gateway whitelist.  A forged copy from the sensors
   node rides that whitelist under central placement — the per-ID residual
   weakness — while distributed placement stops it at the sensors' own
   write gate before it ever reaches the bus. *)
let forged_crossing_command placement =
  let car = Tcar.create ~placement () in
  Tcar.run car ~seconds:0.2;
  let marker = "\x7f" in
  let accepted =
    Node.send (Tcar.node car Names.sensors)
      (Frame.data_std Messages.eps_command marker)
  in
  Tcar.run car ~seconds:0.2;
  let received =
    List.exists
      (fun (f : Frame.t) ->
        Identifier.raw f.id = Messages.eps_command && f.payload = marker)
      (Node.received (Tcar.node car Names.eps))
  in
  (car, accepted, received)

let test_central_forwards_crossing_forgery () =
  let car, accepted, received = forged_crossing_command `Central in
  Alcotest.(check bool) "no HPE under central placement" true
    (Tcar.hpe car Names.sensors = None);
  Alcotest.(check bool) "send accepted" true accepted;
  Alcotest.(check bool) "forged crossing ID forwarded to eps" true received

let test_distributed_blocks_at_source () =
  let car, accepted, received = forged_crossing_command `Distributed in
  Alcotest.(check bool) "HPE present" true (Tcar.hpe car Names.sensors <> None);
  Alcotest.(check bool) "write gate refuses the forgery" false accepted;
  Alcotest.(check bool) "eps never sees it" false received;
  (* the refusal happened at the sensors' own write gate — enforcement in
     the source segment, not downstream at a gateway *)
  (match Tcar.hpe car Names.sensors with
  | Some hpe ->
      Alcotest.(check bool) "blocked at the sensors' write gate" true
        (Secpol_hpe.Engine.write_blocks hpe > 0)
  | None -> Alcotest.fail "no HPE on sensors")

(* ---------- Routing equivalence with the flat bus ---------- *)

(* The declared semantics: a topology delivers exactly what the flat
   broadcast bus would, filtered by route membership.  Inject one marked
   frame from a random node with a random standard ID; the receivers on
   the topology car must be the flat car's receivers restricted to
   segments the derived routing reaches from the sender's segment. *)
let prop_routing_matches_flat_filtered =
  QCheck.Test.make ~name:"topology delivery = flat delivery filtered by route"
    ~count:15
    QCheck.(pair (oneofl Names.nodes) (int_range 0 0x7ff))
    (fun (sender, id) ->
      let marker = "\x7f\x7f\x7f\x7f\x7f" in
      let received_marker node =
        List.exists
          (fun (f : Frame.t) ->
            Identifier.raw f.id = id && f.payload = marker)
          (Node.received node)
      in
      let flat = Fixture.single_bus ~driving:false () in
      ignore (Node.send (Tcar.node flat sender) (Frame.data_std id marker));
      Tcar.run flat ~seconds:0.2;
      let flat_receivers =
        List.filter
          (fun n -> n <> sender && received_marker (Tcar.node flat n))
          Names.nodes
      in
      (* central placement: same stock acceptance filters as the flat car,
         only the gateways between sender and receiver *)
      let tcar = Tcar.create ~placement:`Central ~driving:false () in
      ignore (Node.send (Tcar.node tcar sender) (Frame.data_std id marker));
      Tcar.run tcar ~seconds:0.2;
      let reachable =
        Topology.route (Tcar.topology tcar)
          ~src:(Option.get (Tcar.segment_of tcar sender))
          id
      in
      let expected =
        List.filter
          (fun n ->
            match Tcar.segment_of tcar n with
            | Some seg -> List.mem seg reachable
            | None -> false)
          flat_receivers
      in
      let actual =
        List.filter
          (fun n -> n <> sender && received_marker (Tcar.node tcar n))
          Names.nodes
      in
      expected = actual)

(* ---------- Plans against a topology ---------- *)

let reference_topology () =
  let spec = Segment_map.spec () in
  {
    F.Plan.segments = List.map fst spec.Topology.segments;
    gateways = List.map fst spec.Topology.links;
  }

let test_plan_validates_against_topology () =
  let topology = reference_topology () in
  List.iter
    (fun name ->
      match F.Plan.of_name ~horizon:2.0 name with
      | None -> Alcotest.fail (name ^ " is not a named plan")
      | Some plan -> (
          Alcotest.(check bool)
            (name ^ " listed") true
            (List.mem name F.Plan.named);
          Alcotest.(check bool)
            (name ^ " segment-scoped") true
            (F.Plan.segment_scoped plan);
          match F.Plan.validate ~topology plan with
          | Ok () -> ()
          | Error e -> Alcotest.fail e))
    [ "segment-partition"; "segment-babble"; "gateway-failover" ];
  let bad =
    {
      F.Plan.name = "bad";
      horizon = 2.0;
      entries =
        [
          {
            F.Plan.at = 0.5;
            kind =
              F.Fault.Segment_partition
                { segment = "nope"; heal_after = 0.2 };
          };
        ];
    }
  in
  (match F.Plan.validate ~topology bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted an unknown segment name");
  (* a flat-bus harness owns no segments: every segment-scoped entry is an
     error against the empty topology *)
  let flat = { F.Plan.segments = []; gateways = [] } in
  match
    F.Plan.validate ~topology:flat (F.Plan.segment_partition ~horizon:2.0)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "flat topology accepted a segment fault"

(* ---------- Blast containment ---------- *)

let test_blast_babble_contained () =
  let plan = F.Plan.segment_babble ~horizon:1.5 in
  let o = F.Blast.run ~seed:7L ~plan () in
  Alcotest.(check bool) "contained" true o.F.Blast.passed;
  Alcotest.(check bool) "no violations" true
    (F.Invariant.Blast.ok o.F.Blast.checker);
  (* the babbling segment is the whole blast region *)
  check
    Alcotest.(list string)
    "region is the victim segment"
    [ Segment_map.seg_infotainment ]
    (F.Blast.faulted o.F.Blast.blast)

let test_blast_unbounded_gateway_caught () =
  (* the deliberately-broken build: an effectively unlimited admission
     queue lets the babble grow a backlog the containment gate must see.
     The full 4 s horizon gives the 1.8 s babble window time to queue
     more forwards than the backlog bound *)
  let plan = F.Plan.segment_babble ~horizon:4.0 in
  let o = F.Blast.run ~unbounded_gateway:true ~seed:7L ~plan () in
  Alcotest.(check bool) "containment violated" false o.F.Blast.passed;
  Alcotest.(check bool) "backlog check fired" true
    (List.exists
       (fun (v : F.Invariant.violation) -> v.check = "blast_gateway_backlog")
       (F.Invariant.Blast.violations o.F.Blast.checker))

let test_blast_gateway_failover_limp_home () =
  let plan = F.Plan.gateway_failover ~horizon:2.0 in
  let o = F.Blast.run ~seed:7L ~plan () in
  Alcotest.(check bool) "failover contained" true o.F.Blast.passed;
  match F.Blast.records o.F.Blast.blast with
  | [ r ] ->
      check
        Alcotest.(list string)
        "blast region is the cut-off leaf"
        [ Segment_map.seg_infotainment ]
        r.F.Blast.region;
      Alcotest.(check bool) "fault cleared into limp-home" true
        (r.F.Blast.cleared_at <> None)
  | _ -> Alcotest.fail "expected exactly one plan record"

let () =
  Alcotest.run "secpol_topology"
    [
      ( "spec",
        [
          quick "validation rejects malformed graphs" test_spec_validation;
          quick "derived whitelists and routing"
            test_derived_whitelists_and_route;
          quick "components = blast regions" test_components_blast_regions;
        ] );
      ( "segmented",
        [ quick "two-segment special case" test_two_segment_matches_segmented ]
      );
      ( "reference car",
        [
          slow "four-segment benign function" test_four_segment_benign_function;
        ] );
      ( "placement",
        [
          quick "central forwards crossing forgery"
            test_central_forwards_crossing_forgery;
          quick "distributed blocks at source"
            test_distributed_blocks_at_source;
        ] );
      ( "routing",
        [ QCheck_alcotest.to_alcotest prop_routing_matches_flat_filtered ] );
      ( "plans",
        [
          quick "validated against the topology"
            test_plan_validates_against_topology;
        ] );
      ( "blast",
        [
          slow "babble contained" test_blast_babble_contained;
          slow "unbounded gateway caught" test_blast_unbounded_gateway_caught;
          slow "gateway failover limp-home"
            test_blast_gateway_failover_limp_home;
        ] );
    ]
