(* Tests for the Secpol facade: the end-to-end pipeline and a full
   integration walk of the paper's workflow — model, derive, deploy,
   attack, discover a new threat, ship a policy update. *)

module Pipeline = Secpol.Pipeline
module Threat = Secpol_threat.Threat
module Model = Secpol_threat.Model
module Policy = Secpol_policy
module V = Secpol_vehicle
module Catalog = V.Threat_catalog
module Scenarios = Secpol_attack.Scenarios

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let car_model () = Catalog.model ()

(* ---------- Pipeline ---------- *)

let test_derive_car_model () =
  let report = Pipeline.derive ~version:1 (car_model ()) in
  Alcotest.(check bool) "compiles with rules" true
    (List.length report.Pipeline.db.Policy.Ir.rules > 0);
  Alcotest.(check bool) "default deny" true
    (report.Pipeline.db.Policy.Ir.default = Policy.Ast.Deny);
  check Alcotest.int "no conflicts" 0 (List.length report.Pipeline.conflicts);
  check Alcotest.int "four residual threats" 4
    (List.length report.Pipeline.residual);
  Alcotest.(check bool) "bundle sealed" true
    (Policy.Update.verify report.Pipeline.bundle)

let test_derived_policy_round_trips () =
  let report = Pipeline.derive (car_model ()) in
  match Policy.Parser.parse report.Pipeline.bundle.Policy.Update.source with
  | Ok p ->
      Alcotest.(check bool) "bundle source parses back to the policy" true
        (Policy.Ast.equal p report.Pipeline.policy)
  | Error e -> Alcotest.fail e

let test_deploy () =
  let store = Policy.Update.create () in
  let report = Pipeline.derive (car_model ()) in
  (match Pipeline.deploy store report with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Policy.Update.current store report.Pipeline.policy.Policy.Ast.name with
  | Some b -> check Alcotest.int "installed v1" 1 b.Policy.Update.version
  | None -> Alcotest.fail "nothing installed"

let new_threat =
  Threat.make ~id:"charging_port_injection"
    ~title:"Command injection through the public charging port"
    ~description:
      "A malicious charging station injects drivetrain commands through \
       the charge-controller path — a threat discovered only after \
       deployment."
    ~asset:V.Names.ev_ecu
    ~entry_points:[ V.Names.ep_any_node ]
    ~modes:[ V.Modes.name V.Modes.Normal ]
    ~stride:
      (match Secpol_threat.Stride.of_string "STE" with
      | Ok s -> s
      | Error e -> failwith e)
    ~dread:
      (match Secpol_threat.Dread.of_list [ 8; 6; 5; 7; 5 ] with
      | Ok d -> d
      | Error e -> failwith e)
    ~attack_operation:Threat.Write
    ~legitimate_operations:[ Threat.Read ] ()

let test_respond_to_new_threat () =
  let store = Policy.Update.create () in
  let model = car_model () in
  let first = Pipeline.derive model in
  (match Pipeline.deploy store first with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Pipeline.respond_to_new_threat ~store ~model ~threat:new_threat ~at:100.0 with
  | Error es -> Alcotest.fail (String.concat "; " es)
  | Ok report ->
      check Alcotest.int "seventeen threats now" 17
        (List.length report.Pipeline.model.Model.threats);
      check Alcotest.int "version bumped" 2
        report.Pipeline.bundle.Policy.Update.version;
      (match
         Policy.Update.current store report.Pipeline.policy.Policy.Ast.name
       with
      | Some b -> check Alcotest.int "v2 installed" 2 b.Policy.Update.version
      | None -> Alcotest.fail "nothing installed");
      (* diff against v1 shows added rules, nothing dropped *)
      let d = Policy.Update.diff first.Pipeline.policy report.Pipeline.policy in
      Alcotest.(check bool) "rules added" true (d.Policy.Update.added <> []);
      check Alcotest.int "no rules removed" 0 (List.length d.Policy.Update.removed)

let test_respond_rejects_invalid_threat () =
  let store = Policy.Update.create () in
  let model = car_model () in
  let bad =
    Threat.make ~id:"bad" ~title:"bad" ~asset:"not_an_asset"
      ~entry_points:[ V.Names.ep_sensors ]
      ~stride:
        (match Secpol_threat.Stride.of_string "T" with
        | Ok s -> s
        | Error e -> failwith e)
      ~dread:
        (match Secpol_threat.Dread.of_list [ 1; 1; 1; 1; 1 ] with
        | Ok d -> d
        | Error e -> failwith e)
      ~attack_operation:Threat.Write ~legitimate_operations:[] ()
  in
  match Pipeline.respond_to_new_threat ~store ~model ~threat:bad ~at:0.0 with
  | Ok _ -> Alcotest.fail "accepted a threat referencing an unknown asset"
  | Error _ -> ()

(* ---------- End-to-end integration ---------- *)

let test_full_paper_workflow () =
  (* 1. Threat modelling produces the car model (Table I). *)
  let model = car_model () in
  check Alcotest.int "sixteen threats" 16 (List.length model.Model.threats);
  (* 2. Derivation emits a policy; the device also carries the operational
        baseline compiled into HPE approved lists. *)
  let report = Pipeline.derive model in
  check Alcotest.int "no conflicts" 0 (List.length report.Pipeline.conflicts);
  (* 3. An unprotected fleet falls to the spoofing attack... *)
  let unprotected =
    Scenarios.run ~placement:`Unfiltered
      (Option.get (Scenarios.find Catalog.ev_ecu_spoof_disable_locks))
  in
  Alcotest.(check bool) "unprotected car falls" true unprotected.Scenarios.succeeded;
  (* 4. ...while the HPE-equipped car shrugs it off. *)
  let protected_ =
    Scenarios.run
      ~placement:`Distributed
      (Option.get (Scenarios.find Catalog.ev_ecu_spoof_disable_locks))
  in
  Alcotest.(check bool) "protected car stands" false protected_.Scenarios.succeeded;
  (* 5. Post-deployment: a new threat arrives as a policy update, not a
        redesign. *)
  let store = Policy.Update.create () in
  (match Pipeline.deploy store report with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Pipeline.respond_to_new_threat ~store ~model ~threat:new_threat ~at:1.0 with
  | Ok r2 ->
      Alcotest.(check bool) "update sealed" true
        (Policy.Update.verify r2.Pipeline.bundle)
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_pipeline_from_model_file () =
  (* the Fig. 1 front half driven from a version-controlled text file *)
  let source =
    {|use_case "Charging station"
      modes normal maintenance
      asset charger "Charge controller" safety_critical
      entry cable "Charge cable" physical
      entry backend "Operator backend" network
      threat cable_injection {
        title "Command injection through the cable"
        asset charger
        entry cable
        modes normal
        stride STE
        dread 8 6 5 7 5
        attack write
        legit read
      }|}
  in
  match Secpol.Threat.Model_format.parse source with
  | Error e -> Alcotest.fail e
  | Ok model ->
      let report = Pipeline.derive model in
      let engine = Policy.Engine.create report.Pipeline.db in
      Alcotest.(check bool) "cable read allowed" true
        (Policy.Engine.permitted engine
           {
             Policy.Ir.mode = "normal";
             subject = "cable";
             asset = "charger";
             op = Policy.Ir.Read;
             msg_id = None;
           });
      Alcotest.(check bool) "cable write (the attack) denied" false
        (Policy.Engine.permitted engine
           {
             Policy.Ir.mode = "normal";
             subject = "cable";
             asset = "charger";
             op = Policy.Ir.Write;
             msg_id = None;
           })

let test_facade_reexports () =
  (* the umbrella namespace exposes every subsystem *)
  let _ = Secpol.Sim.Rng.create 1L in
  let _ = Secpol.Threat.Stride.all in
  let _ = Secpol.Policy.Ast.Allow in
  let _ = Secpol.Can.Identifier.standard 1 in
  let _ = Secpol.Hpe.Approved_list.create () in
  let _ = Secpol.Selinux.Access_vector.file in
  let _ = Secpol.Vehicle.Names.nodes in
  let _ = Secpol.Attack.Campaign.level_name in
  let _ = Secpol.Lifecycle.Phases.pipeline in
  ()

let () =
  Alcotest.run "secpol_core"
    [
      ( "pipeline",
        [
          quick "derive car model" test_derive_car_model;
          quick "bundle round trips" test_derived_policy_round_trips;
          quick "deploy" test_deploy;
          quick "respond to new threat" test_respond_to_new_threat;
          quick "invalid threat rejected" test_respond_rejects_invalid_threat;
        ] );
      ( "integration",
        [
          slow "full paper workflow" test_full_paper_workflow;
          quick "pipeline from a model file" test_pipeline_from_model_file;
          quick "facade re-exports" test_facade_reexports;
        ] );
    ]
