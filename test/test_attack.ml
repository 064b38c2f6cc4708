(* Tests for attacker models, primitives, the sixteen Table-I scenarios and
   the campaigns — the Q1/Q3/Q4 reproduction checks. *)

module V = Secpol_vehicle
module Tcar = V.Topology_car
module Fixture = Car_fixture
module Names = V.Names
module Messages = V.Messages
module Catalog = V.Threat_catalog
module Attacker = Secpol_attack.Attacker
module Primitives = Secpol_attack.Primitives
module Scenarios = Secpol_attack.Scenarios
module Campaign = Secpol_attack.Campaign
module Frame = Secpol_can.Frame
module Node = Secpol_can.Node
module Controller = Secpol_can.Controller
module Rng = Secpol_sim.Rng

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

(* ---------- Attacker model ---------- *)

let test_compromise_clears_filters () =
  let car = Fixture.single_bus () in
  let node = Tcar.node car Names.ev_ecu in
  Alcotest.(check bool) "filters configured" true
    (Controller.filters (Node.controller node) <> []);
  let _atk = Attacker.compromise car Names.ev_ecu in
  Alcotest.(check bool) "filters cleared" true
    (Controller.filters (Node.controller node) = [])

let test_compromised_node_spoofs () =
  let car = Fixture.single_bus () in
  Tcar.run car ~seconds:0.2;
  let atk = Attacker.compromise car Names.infotainment in
  Alcotest.(check bool) "spoof accepted locally" true
    (Attacker.spoof_command atk ~msg_id:Messages.ecu_command
       Messages.cmd_disable);
  Tcar.run car ~seconds:0.2;
  Alcotest.(check bool) "ecu disabled" false (Tcar.state car).V.State.ev_ecu_enabled

let test_alien_node () =
  let car = Fixture.single_bus () in
  Tcar.run car ~seconds:0.2;
  let atk = Attacker.alien car ~segment:V.Segment_map.seg_bus ~name:"mallory" in
  Alcotest.(check bool) "alien transmits" true
    (Attacker.spoof_command atk ~msg_id:Messages.eps_command
       Messages.cmd_disable);
  Tcar.run car ~seconds:0.2;
  Alcotest.(check bool) "eps down" false (Tcar.state car).V.State.eps_active

let test_attacker_captures_and_replays () =
  let car = Fixture.single_bus () in
  let atk = Attacker.alien car ~segment:V.Segment_map.seg_bus ~name:"mallory" in
  Tcar.run car ~seconds:0.5;
  Alcotest.(check bool) "captured traffic" true (Attacker.captured atk <> []);
  let only_telemetry (f : Frame.t) =
    match f.id with
    | Secpol_can.Identifier.Standard id -> id = Messages.accel_status
    | Secpol_can.Identifier.Extended _ -> false
  in
  let sent = Attacker.replay atk ~filter:only_telemetry () in
  Alcotest.(check bool) "replayed" true (sent > 0)

let test_reconfigure_hpe_locked () =
  let car = Fixture.single_bus ~placement:`Distributed () in
  let atk = Attacker.compromise car Names.infotainment in
  match Attacker.try_reconfigure_hpe atk with
  | Ok () -> Alcotest.fail "reconfigured a locked HPE"
  | Error _ -> ()

let test_reconfigure_hpe_absent () =
  let car = Fixture.single_bus () in
  let atk = Attacker.compromise car Names.infotainment in
  match Attacker.try_reconfigure_hpe atk with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------- Primitives ---------- *)

let test_dos_flood () =
  let car = Fixture.single_bus () in
  Tcar.run car ~seconds:0.2;
  let atk = Attacker.alien car ~segment:V.Segment_map.seg_bus ~name:"mallory" in
  let sent = Primitives.dos_flood atk ~count:2000 in
  check Alcotest.int "all accepted without enforcement" 2000 sent;
  Tcar.run car ~seconds:0.05;
  (* id 0x000 dominates arbitration: legitimate frames starve behind the
     flood, which is still draining *)
  Alcotest.(check bool) "flood still queued" true
    (Secpol_can.Bus.pending (Tcar.bus car V.Segment_map.seg_bus) > 100)

let test_fuzz_counts () =
  let car = Fixture.single_bus () in
  let atk = Attacker.alien car ~segment:V.Segment_map.seg_bus ~name:"mallory" in
  let rng = Rng.create 1L in
  let sent = Primitives.fuzz atk rng ~count:50 in
  check Alcotest.int "all accepted" 50 sent

let test_hpe_blocks_flood_at_source () =
  let car = Fixture.single_bus ~placement:`Distributed () in
  Tcar.run car ~seconds:0.2;
  (* a compromised *equipped* node cannot flood: 0x000 is unapproved *)
  let atk = Attacker.compromise car Names.infotainment in
  let sent = Primitives.dos_flood atk ~count:100 in
  check Alcotest.int "flood refused at the write filter" 0 sent

(* ---------- Scenarios (experiment Q1) ---------- *)

let test_all_sixteen_present () =
  check Alcotest.int "sixteen scenarios" 16 (List.length Scenarios.all);
  List.iter
    (fun (row : Catalog.row) ->
      Alcotest.(check bool)
        (row.threat.Secpol_threat.Threat.id ^ " has a scenario")
        true
        (Scenarios.find row.threat.Secpol_threat.Threat.id <> None))
    Catalog.rows

let test_all_succeed_without_enforcement () =
  let outcomes = Scenarios.run_all ~placement:`Unfiltered () in
  List.iter
    (fun (o : Scenarios.outcome) ->
      Alcotest.(check bool) (o.threat_id ^ " succeeds") true o.succeeded)
    outcomes

let test_hpe_blocks_exactly_non_residual () =
  let outcomes = Scenarios.run_all ~placement:`Distributed () in
  List.iter
    (fun (o : Scenarios.outcome) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s" o.threat_id
           (if o.expected_residual then "remains (residual)" else "blocked"))
        o.expected_residual o.succeeded)
    outcomes

let test_software_filters_do_not_stop_spoofing () =
  (* under software filters, only the SELinux-backed browser chain fails *)
  let outcomes = Scenarios.run_all ~placement:`Central () in
  List.iter
    (fun (o : Scenarios.outcome) ->
      let expected = o.threat_id <> Catalog.infotainment_browser_escalation in
      Alcotest.(check bool) (o.threat_id ^ " outcome") expected o.succeeded)
    outcomes

(* ---------- Campaign (experiments Q1/Q3/Q4) ---------- *)

let test_campaign_matches_paper () =
  let summaries = Campaign.table () in
  Alcotest.(check bool) "reproduction criterion" true
    (Campaign.matches_paper summaries);
  let hw =
    List.find
      (fun (s : Campaign.summary) -> s.placement = `Distributed)
      summaries
  in
  check Alcotest.int "hardware leaves only the residual rows" 4
    hw.Campaign.succeeded

let test_firmware_sweep_software_grows () =
  let points =
    Campaign.firmware_sweep `Central ~compromised_counts:[ 0; 2; 4; 8 ]
  in
  (match points with
  | [ p0; _; _; p8 ] ->
      check Alcotest.int "no compromise, no deliveries" 0 p0.Campaign.delivered;
      Alcotest.(check bool) "full compromise delivers attacks" true
        (p8.Campaign.delivered > 0);
      Alcotest.(check bool) "frames were attempted" true
        (p8.Campaign.attack_frames > 0)
  | _ -> Alcotest.fail "expected four points");
  (* non-strict growth along the sweep *)
  let rec monotone = function
    | (a : Campaign.sweep_point) :: (b :: _ as rest) ->
        a.delivered <= b.delivered && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "containment degrades monotonically" true (monotone points)

let test_firmware_sweep_hardware_flat () =
  let points =
    Campaign.firmware_sweep `Distributed ~compromised_counts:[ 0; 2; 4; 8 ]
  in
  List.iter
    (fun (p : Campaign.sweep_point) ->
      check Alcotest.int
        (Printf.sprintf "k=%d contained" p.Campaign.compromised)
        0 p.Campaign.delivered)
    points

let test_spoof_detection () =
  (* an alien station impersonates the sensor cluster; the sensors' own HPE
     flags frames arriving under its exclusive IDs *)
  let car = Fixture.single_bus ~placement:`Distributed () in
  Tcar.run car ~seconds:0.5;
  let sensors_hpe = Option.get (Tcar.hpe car Names.sensors) in
  check Alcotest.int "no alerts on clean traffic" 0
    (Secpol_hpe.Engine.spoof_alerts sensors_hpe);
  let atk = Attacker.alien car ~segment:V.Segment_map.seg_bus ~name:"mallory" in
  for _ = 1 to 5 do
    ignore
      (Attacker.spoof_command atk ~msg_id:Messages.brake_status
         V.Sensors.crash_signal)
  done;
  Tcar.run car ~seconds:0.5;
  check Alcotest.int "five impersonations flagged" 5
    (Secpol_hpe.Engine.spoof_alerts sensors_hpe)

let test_benign_run_no_damage () =
  let stats = Campaign.benign_run `Distributed in
  check Alcotest.int "no false blocks" 0 stats.Campaign.hpe_blocks;
  check Alcotest.int "nothing undelivered" 0 stats.Campaign.undelivered;
  Alcotest.(check bool) "traffic flowed" true (stats.Campaign.deliveries > 100)

let () =
  Alcotest.run "secpol_attack"
    [
      ( "attacker",
        [
          quick "compromise clears filters" test_compromise_clears_filters;
          quick "compromised node spoofs" test_compromised_node_spoofs;
          quick "alien node" test_alien_node;
          quick "capture + replay" test_attacker_captures_and_replays;
          quick "locked HPE resists" test_reconfigure_hpe_locked;
          quick "absent HPE trivially ok" test_reconfigure_hpe_absent;
        ] );
      ( "primitives",
        [
          quick "dos flood" test_dos_flood;
          quick "fuzz" test_fuzz_counts;
          quick "flood blocked at source" test_hpe_blocks_flood_at_source;
        ] );
      ( "scenarios",
        [
          quick "sixteen rows covered" test_all_sixteen_present;
          slow "all succeed unprotected" test_all_succeed_without_enforcement;
          slow "HPE blocks exactly the R rows" test_hpe_blocks_exactly_non_residual;
          slow "software filters and spoofing"
            test_software_filters_do_not_stop_spoofing;
        ] );
      ( "campaign",
        [
          slow "matches the paper" test_campaign_matches_paper;
          slow "firmware sweep (software)" test_firmware_sweep_software_grows;
          slow "firmware sweep (hardware)" test_firmware_sweep_hardware_flat;
          quick "spoof detection" test_spoof_detection;
          slow "benign run" test_benign_run_no_damage;
        ] );
    ]
