(* The software enforcement path (paper §V.B.1): the infotainment browser
   exploit under the SELinux-style policy engine, before and after the
   hardening policy update — and the defence-in-depth interplay with the
   HPE at the bus.

   Run with: dune exec examples/infotainment_attack.exe *)

module V = Secpol.Vehicle
module Tcar = V.Topology_car
module Os = V.Infotainment_os
module Selinux = Secpol.Selinux

let banner title = Printf.printf "\n=== %s ===\n" title

let attempt_chain os label =
  banner label;
  Printf.printf "browser context: %s\n"
    (Selinux.Context.to_string (Os.browser_context os));
  Printf.printf "benign browsing: %s\n"
    (if Os.browse os then "works" else "broken (policy too tight!)");
  match Os.exploit_browser os with
  | Error e ->
      Printf.printf "exploit: transition DENIED (%s)\n" e;
      Printf.printf "kill chain broken at step 1.\n";
      None
  | Ok installer ->
      Printf.printf "exploit: escalated to %s\n"
        (Selinux.Context.to_string installer);
      let installed = Os.install_package os ~as_:installer in
      Printf.printf "package install: %s\n"
        (if installed then "SUCCEEDED" else "denied");
      Some installer

let try_kill_propulsion car os installer =
  let frame =
    Secpol.Can.Frame.data_std V.Messages.ecu_command
      (String.make 1 V.Messages.cmd_disable)
  in
  let sent = Os.send_can os ~as_:installer frame in
  Printf.printf "CAN write from the escalated domain: %s\n"
    (if sent then "reached the bus" else "refused");
  Tcar.run car ~seconds:0.3;
  Printf.printf "propulsion: %s\n"
    (if (Tcar.state car).V.State.ev_ecu_enabled then "intact"
     else "KILLED from the media display")

let () =
  (* Scene 1: factory policy, no HPE — the full Jeep-style chain works. *)
  let car =
    Tcar.create ~placement:`Central ~spec:(V.Segment_map.single_bus_spec ()) ()
  in
  Tcar.run car ~seconds:0.3;
  let os = Os.create_exn (Tcar.state car) (Tcar.node car V.Names.infotainment) in
  (match attempt_chain os "factory software policy (v1), no HPE" with
  | Some installer -> try_kill_propulsion car os installer
  | None -> ());

  (* Scene 2: the OEM ships the hardened policy module over the air. *)
  banner "policy update arrives: base module v2";
  (match Os.apply_hardening os with
  | Ok () -> Printf.printf "module loaded; neverallow assertions re-checked.\n"
  | Error es -> failwith (String.concat "; " es));
  (match attempt_chain os "hardened software policy (v2)" with
  | Some _ -> Printf.printf "UNEXPECTED: chain survived v2\n"
  | None -> ());
  Printf.printf "audit log now holds %d denial(s):\n" (Os.denial_count os);
  List.iter
    (fun d ->
      if not d.Selinux.Server.granted then
        Format.printf "  %a@." Selinux.Server.pp_denial d)
    (Selinux.Server.audit_log (Os.server os));

  (* Scene 3: defence in depth — factory-sloppy software policy but an HPE
     on the node; the chain escalates in software yet dies at the bus. *)
  let car2 =
    Tcar.create ~placement:`Distributed
      ~spec:(V.Segment_map.single_bus_spec ())
      ()
  in
  Tcar.run car2 ~seconds:0.3;
  let os2 =
    Os.create_exn (Tcar.state car2) (Tcar.node car2 V.Names.infotainment)
  in
  (match
     attempt_chain os2 "factory software policy (v1) + hardware policy engine"
   with
  | Some installer -> try_kill_propulsion car2 os2 installer
  | None -> ());
  Printf.printf
    "\nSummary: either engine alone breaks the kill chain — the software \
     policy at the domain transition,\nthe HPE at the forged bus write; \
     together they give the layered enforcement the paper argues for.\n"
