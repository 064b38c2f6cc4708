(* Security monitoring: the enforcement engines as a detection sensor.

   An HPE-equipped car is watched by the IDS while a compromised node and
   an alien station misbehave; incidents are classified and the bus
   evidence is exported in candump format for offline forensics.

   Run with: dune exec examples/monitoring.exe *)

module V = Secpol.Vehicle
module Tcar = V.Topology_car
module Ids = V.Ids
module Can = Secpol.Can

let banner title = Printf.printf "\n=== %s ===\n" title

let scan_and_report ids label =
  banner ("IDS scan: " ^ label);
  match Ids.scan ids with
  | [] -> print_endline "  (no incidents)"
  | incidents ->
      List.iter
        (fun i -> Format.printf "  %a@." Ids.pp_incident i)
        incidents

let () =
  (* the IDS watches the paper's Fig. 2 car: all eight ECUs on one bus *)
  let car =
    Tcar.create ~placement:`Distributed
      ~spec:(V.Segment_map.single_bus_spec ())
      ()
  in
  let ids = Ids.create car in

  banner "phase 1: normal driving";
  Tcar.run car ~seconds:2.0;
  scan_and_report ids "after 2 s of clean traffic";

  banner "phase 2: the infotainment unit is compromised";
  let atk = Secpol.Attack.Attacker.compromise car V.Names.infotainment in
  (* it probes the bus with commands it was never designed to send *)
  List.iter
    (fun msg_id ->
      ignore
        (Secpol.Attack.Primitives.spoof atk ~msg_id
           ~payload:(String.make 1 V.Messages.cmd_disable)))
    [ V.Messages.ecu_command; V.Messages.eps_command; V.Messages.engine_command ];
  Tcar.run car ~seconds:0.5;
  scan_and_report ids "after the probing attempts";
  Printf.printf "  vehicle state: propulsion %s, steering %s\n"
    (if (Tcar.state car).V.State.ev_ecu_enabled then "intact" else "LOST")
    (if (Tcar.state car).V.State.eps_active then "intact" else "LOST");

  banner "phase 3: an alien station joins the bus";
  let alien = Secpol.Attack.Attacker.alien car ~segment:V.Segment_map.seg_bus
      ~name:"dongle" in
  (* it impersonates the sensor cluster and floods telemetry *)
  for _ = 1 to 150 do
    ignore
      (Secpol.Attack.Primitives.spoof alien ~msg_id:V.Messages.brake_status
         ~payload:"\x00\x00")
  done;
  ignore (Secpol.Attack.Primitives.spoof alien ~msg_id:0x7C0 ~payload:"\xAA");
  Tcar.run car ~seconds:1.0;
  scan_and_report ids "after the alien joined";

  banner "forensics: candump evidence (last lines)";
  let log =
    Can.Candump.export (Can.Bus.trace (Tcar.bus car V.Segment_map.seg_bus))
  in
  let lines = String.split_on_char '\n' log in
  let n = List.length lines in
  List.iteri
    (fun i line -> if i >= n - 6 && line <> "" then Printf.printf "  %s\n" line)
    lines;
  Printf.printf "  (%d frames captured in total)\n" (n - 1);

  banner "incident summary";
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (i : Ids.incident) ->
      let k = Ids.kind_name i.Ids.kind in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    (Ids.incidents ids);
  Hashtbl.iter (fun k v -> Printf.printf "  %-20s %d\n" k v) counts;
  print_endline
    "\nThe same policy machinery that blocks the attacks also tells the \
     operations centre precisely\nwho misbehaved and how — enforcement and \
     detection from one policy source."
