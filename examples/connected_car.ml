(* The paper's §V case study, live: a connected car under attack, first
   unprotected, then with the hardware policy engine.

   Run with: dune exec examples/connected_car.exe *)

module V = Secpol.Vehicle
module Tcar = V.Topology_car
module Names = V.Names
module Messages = V.Messages
module State = V.State
module Attacker = Secpol.Attack.Attacker
module Primitives = Secpol.Attack.Primitives

let banner title =
  Printf.printf "\n=== %s ===\n" title

let show_state car = Format.printf "  state: %a@." State.pp (Tcar.state car)

let journal car since =
  List.iter
    (fun (t, msg) -> if t >= since then Printf.printf "  [%7.3f] %s\n" t msg)
    (State.events (Tcar.state car))

let drive_and_attack ~placement ~label =
  banner label;
  (* the paper's Fig. 2 car: all eight ECUs on one bus *)
  let car =
    Tcar.create ~placement ~spec:(V.Segment_map.single_bus_spec ()) ()
  in
  Tcar.run car ~seconds:1.0;
  Printf.printf "after 1 s of normal driving:\n";
  show_state car;

  (* Attack 1 — Table I row 1: the Jeep-style pivot.  The infotainment unit
     is compromised over its cellular link and forges the immobilise
     command while the car is moving. *)
  banner (label ^ " / spoofed ECU-disable from the infotainment pivot");
  let t0 = Secpol.Sim.Engine.now (Tcar.sim car) in
  let atk = Attacker.compromise car Names.infotainment in
  let accepted =
    Primitives.spoof atk ~msg_id:Messages.ecu_command
      ~payload:(String.make 1 Messages.cmd_disable)
  in
  Printf.printf "  forged frame %s at the compromised node\n"
    (if accepted then "accepted" else "REFUSED by the HPE write filter");
  Tcar.run car ~seconds:0.5;
  journal car t0;
  show_state car;
  Printf.printf "  attack %s\n"
    (if (Tcar.state car).State.ev_ecu_enabled then "FAILED — propulsion intact"
     else "SUCCEEDED — car dead on the road");

  (* Attack 2 — Table I row 13: unlock while in motion. *)
  banner (label ^ " / unlock-in-motion replay");
  let t1 = Secpol.Sim.Engine.now (Tcar.sim car) in
  let _ =
    Primitives.spoof atk ~msg_id:Messages.lock_command
      ~payload:(String.make 1 Messages.cmd_unlock)
  in
  Tcar.run car ~seconds:0.5;
  journal car t1;
  Printf.printf "  doors %s\n"
    (if (Tcar.state car).State.doors_locked then "stayed locked"
     else "UNLOCKED at speed");

  (* Attack 3 — denial of service flood. *)
  banner (label ^ " / bus flood from the compromised node");
  let sent = Primitives.dos_flood atk ~count:500 in
  Printf.printf "  %d/500 flood frames reached the bus\n" sent;
  Tcar.run car ~seconds:0.5;

  (* What did the engines see? *)
  (match Tcar.hpes car with
  | [] -> ()
  | hpes ->
      banner (label ^ " / HPE statistics");
      List.iter
        (fun (_, hpe) ->
          Format.printf "  %a@."
            (fun ppf () -> Secpol.Hpe.Engine.pp_stats ppf hpe)
            ())
        hpes);
  car

let () =
  (* a device shipped with nothing but firmware-level acceptance filters *)
  let _ =
    drive_and_attack ~placement:`Central
      ~label:"conventional device (software filters)"
  in
  (* the paper's proposal: least-privilege policy in a locked HPE *)
  let car =
    drive_and_attack ~placement:`Distributed
      ~label:"policy-equipped device (HPE)"
  in
  banner "crash handling still works under enforcement";
  let t = Secpol.Sim.Engine.now (Tcar.sim car) in
  V.Safety.trigger_crash (Tcar.node car Names.safety) (Tcar.state car);
  Tcar.run car ~seconds:0.5;
  journal car t;
  Printf.printf
    "\nSummary: the HPE blocks the forged commands at their source while \
     every legitimate function —\ntelemetry, remote locking, the whole \
     crash chain — keeps working.\n"
