module V = Secpol_vehicle
module Tcar = V.Topology_car
module State = V.State
module Messages = V.Messages
module Names = V.Names
module Modes = V.Modes
module Catalog = V.Threat_catalog
module Frame = Secpol_can.Frame
module Identifier = Secpol_can.Identifier

type outcome = {
  threat_id : string;
  platform : string;
  succeeded : bool;
  expected_residual : bool;
  detail : string;
}

type t = {
  threat_id : string;
  description : string;
  platform : string;
  execute : seed:int64 -> Tcar.placement -> bool * string;
      (** (succeeded, detail) *)
}

let threat_id t = t.threat_id

let description t = t.description

let residual_of_catalog id =
  match Catalog.find id with
  | Some row -> Secpol_threat.Threat.residual_risk row.threat
  | None -> false

let car ?driving ~seed placement =
  Tcar.create ~seed ~placement ?driving
    ~spec:(V.Segment_map.single_bus_spec ())
    ()

let warmup car = Tcar.run car ~seconds:0.3

let settle car = Tcar.run car ~seconds:0.3

let one cmd = String.make 1 cmd

let spoof atk msg_id payload = Primitives.spoof atk ~msg_id ~payload

(* Most rows share one shape: drive, compromise the platform, inject one
   forged command, observe the state predicate. *)
let simple ~threat_id ~description ~platform ~msg_id ~payload ~success =
  {
    threat_id;
    description;
    platform;
    execute =
      (fun ~seed placement ->
        let car = car ~seed placement in
        warmup car;
        let atk = Attacker.compromise car platform in
        let accepted = spoof atk msg_id payload in
        settle car;
        let ok = success car in
        ( ok,
          Printf.sprintf "frame %s at the attacker's node%s"
            (if accepted then "accepted" else "refused")
            (if ok then "; goal state reached" else "") ));
  }

let scenarios =
  [
    (* 1: spoofed door-lock/safety-provenance data disables the ECU. *)
    simple ~threat_id:Catalog.ev_ecu_spoof_disable_locks
      ~description:
        "Compromised infotainment forges the immobilise command (as the \
         door-lock/alarm path would send it) while driving."
      ~platform:Names.infotainment ~msg_id:Messages.ecu_command
      ~payload:(one Messages.cmd_disable)
      ~success:(fun car -> not (Tcar.state car).State.ev_ecu_enabled);
    (* 2: spoofed sensor data triggers the ECU's emergency reaction. *)
    simple ~threat_id:Catalog.ev_ecu_spoof_disable_sensors
      ~description:
        "Compromised telematics forges an obstacle warning at speed; the \
         ECU performs an emergency stop."
      ~platform:Names.telematics ~msg_id:Messages.obstacle_warning
      ~payload:"\001"
      ~success:(fun car -> (Tcar.state car).State.speed_kmh = 0.0);
    (* 3: thief silences the tracking uplink from the telematics itself. *)
    {
      threat_id = Catalog.ev_ecu_tracking_disable;
      description =
        "Thief with wireless access compromises the telematics firmware and \
         shuts the modem down; tracking reports stop.  Read/write policy \
         leaves this residual (the unit legitimately owns its radio).";
      platform = Names.telematics;
      execute =
        (fun ~seed placement ->
          let car = car ~seed placement ~driving:false in
          warmup car;
          let _atk = Attacker.compromise car Names.telematics in
          (* firmware-level action on the unit itself; no bus frame *)
          (Tcar.state car).State.modem_enabled <- false;
          (Tcar.state car).State.tracking_enabled <- false;
          settle car;
          ( (not (Tcar.state car).State.tracking_enabled),
            "firmware action on the compromised unit; no CAN frame to filter"
          ));
    };
    (* 4: reactivating an immobilised vehicle over the wireless link. *)
    {
      threat_id = Catalog.ev_ecu_failsafe_override;
      description =
        "Vehicle remotely immobilised after theft; attacker replays the \
         enable command from the compromised telematics unit.";
      platform = Names.telematics;
      execute =
        (fun ~seed placement ->
          let car = car ~seed placement ~driving:false in
          (Tcar.state car).State.ev_ecu_enabled <- false;
          Tcar.set_mode car Modes.Fail_safe;
          warmup car;
          let atk = Attacker.compromise car Names.telematics in
          let accepted =
            spoof atk Messages.ecu_command (one Messages.cmd_enable)
          in
          settle car;
          ( (Tcar.state car).State.ev_ecu_enabled,
            if accepted then "enable command reached the bus"
            else "enable command refused at the attacker's node" ));
    };
    (* 5: EPS deactivation from an arbitrary compromised node. *)
    simple ~threat_id:Catalog.eps_deactivation
      ~description:
        "Compromised infotainment (standing in for 'any node') forges the \
         steering-assist shutdown."
      ~platform:Names.infotainment ~msg_id:Messages.eps_command
      ~payload:(one Messages.cmd_disable)
      ~success:(fun car -> not (Tcar.state car).State.eps_active);
    (* 6: engine shutdown from the compromised sensor cluster. *)
    simple ~threat_id:Catalog.engine_sensor_deactivation
      ~description:
        "Compromised sensor cluster sends the engine stop command it was \
         never designed to produce."
      ~platform:Names.sensors ~msg_id:Messages.engine_command
      ~payload:(one Messages.cmd_disable)
      ~success:(fun car -> not (Tcar.state car).State.engine_running);
    (* 7: telematics reconfigured from the drivetrain side. *)
    simple ~threat_id:Catalog.connectivity_component_modification
      ~description:
        "Pivot from the compromised sensor cluster reconfigures (here: \
         shuts down) the telematics modem during operation."
      ~platform:Names.sensors ~msg_id:Messages.modem_command
      ~payload:(one Messages.cmd_disable)
      ~success:(fun car -> not (Tcar.state car).State.modem_enabled);
    (* 8: privacy attack via modified radio firmware. *)
    simple ~threat_id:Catalog.connectivity_firmware_privacy
      ~description:
        "Compromised infotainment pushes a radio-firmware modification \
         (modelled as an unauthorised modem reconfiguration command)."
      ~platform:Names.infotainment ~msg_id:Messages.modem_command
      ~payload:(one Messages.cmd_disable)
      ~success:(fun car -> not (Tcar.state car).State.modem_enabled);
    (* 9: fail-safe comms silenced through the emergency path (residual). *)
    {
      threat_id = Catalog.connectivity_modem_disable_emergency;
      description =
        "Compromised safety controller — the legitimate emergency path — \
         shuts the modem down before a crash; the eCall then fails.  The \
         RW policy row cannot block a legitimate writer.";
      platform = Names.safety;
      execute =
        (fun ~seed placement ->
          let car = car ~seed placement in
          warmup car;
          let atk = Attacker.compromise car Names.safety in
          let _ = spoof atk Messages.modem_command (one Messages.cmd_disable) in
          settle car;
          ( (not (Tcar.state car).State.modem_enabled),
            "modem state after the forged shutdown" ));
    };
    (* 10: the same attack via the sensor/airbag path (non-producer). *)
    simple ~threat_id:Catalog.connectivity_modem_disable_sensors
      ~description:
        "Compromised sensor cluster tries the same modem shutdown through \
         the crash-signalling path."
      ~platform:Names.sensors ~msg_id:Messages.modem_command
      ~payload:(one Messages.cmd_disable)
      ~success:(fun car -> not (Tcar.state car).State.modem_enabled);
    (* 11: browser exploit escalation chain (software + bus). *)
    {
      threat_id = Catalog.infotainment_browser_escalation;
      description =
        "Media-browser exploit transitions into the installer domain, \
         installs a package, and uses the CAN socket to kill propulsion.  \
         The software policy engine (hardened policy) breaks the chain at \
         the transition; the HPE breaks it at the bus.";
      platform = Names.infotainment;
      execute =
        (fun ~seed placement ->
          let car = car ~seed placement in
          warmup car;
          let hardened =
            match placement with
            | `Central -> true
            | `Unfiltered | `Distributed -> false
          in
          let os =
            V.Infotainment_os.create_exn ~hardened (Tcar.state car)
              (Tcar.node car Names.infotainment)
          in
          let detail, escalated =
            match V.Infotainment_os.exploit_browser os with
            | Ok ctx -> ("escalated to installer_t", Some ctx)
            | Error e -> (e, None)
          in
          match escalated with
          | None -> (false, detail)
          | Some ctx ->
              let installed = V.Infotainment_os.install_package os ~as_:ctx in
              let frame =
                Frame.data
                  (Identifier.standard Messages.ecu_command)
                  (one Messages.cmd_disable)
              in
              let _sent = V.Infotainment_os.send_can os ~as_:ctx frame in
              settle car;
              ( installed && not (Tcar.state car).State.ev_ecu_enabled,
                detail ^ "; final CAN write "
                ^
                if not (Tcar.state car).State.ev_ecu_enabled then "landed"
                else "did not take effect" ));
    };
    (* 12: forged status values on the driver display. *)
    {
      threat_id = Catalog.infotainment_status_modification;
      description =
        "Compromised telematics forges acceleration telemetry; the display \
         shows 200 km/h while the car does 50.";
      platform = Names.telematics;
      execute =
        (fun ~seed placement ->
          let car = car ~seed placement in
          warmup car;
          let atk = Attacker.compromise car Names.telematics in
          let _ = spoof atk Messages.accel_status "\200\000" in
          Tcar.run car ~seconds:0.005;
          let displayed =
            V.Infotainment.displayed_speed (Tcar.node car Names.infotainment)
          in
          ( displayed = Some 200.0,
            match displayed with
            | Some s -> Printf.sprintf "display shows %.0f km/h" s
            | None -> "display never updated" ));
    };
    (* 13: unlock while in motion. *)
    simple ~threat_id:Catalog.door_unlock_in_motion
      ~description:
        "Compromised infotainment replays the unlock command at speed."
      ~platform:Names.infotainment ~msg_id:Messages.lock_command
      ~payload:(one Messages.cmd_unlock)
      ~success:(fun car -> not (Tcar.state car).State.doors_locked);
    (* 14: doors relocked during an accident (residual). *)
    {
      threat_id = Catalog.door_lock_in_accident;
      description =
        "After a crash unlocks the doors, the compromised telematics unit \
         — a legitimate lock-command writer — relocks them, trapping the \
         occupants.  The W policy row cannot block a legitimate writer.";
      platform = Names.telematics;
      execute =
        (fun ~seed placement ->
          let car = car ~seed placement in
          warmup car;
          V.Safety.trigger_crash (Tcar.node car Names.safety) (Tcar.state car);
          Tcar.run car ~seconds:0.1;
          let atk = Attacker.compromise car Names.telematics in
          let _ = spoof atk Messages.lock_command (one Messages.cmd_lock) in
          settle car;
          ( (Tcar.state car).State.doors_locked,
            Printf.sprintf "doors %s after the crash"
              (if (Tcar.state car).State.doors_locked then "relocked" else "open")
          ));
    };
    (* 15: false fail-safe triggering via forged crash telemetry. *)
    simple ~threat_id:Catalog.safety_false_failsafe
      ~description:
        "Compromised infotainment forges a crash-magnitude brake reading; \
         the safety controller enters fail-safe and unlocks the car."
      ~platform:Names.infotainment ~msg_id:Messages.brake_status
      ~payload:(String.make 1 V.Sensors.crash_signal)
      ~success:(fun car -> (Tcar.state car).State.failsafe_latched);
    (* 16: alarm and locking defeated from the lock controller (residual). *)
    {
      threat_id = Catalog.safety_alarm_disable;
      description =
        "Parked, locked and alarmed car: the compromised door-lock \
         controller opens its own actuators and — as a legitimate \
         immobiliser writer — lifts the propulsion cut.";
      platform = Names.door_locks;
      execute =
        (fun ~seed placement ->
          let car = car ~seed placement ~driving:false in
          (Tcar.state car).State.doors_locked <- true;
          V.Safety.arm_alarm (Tcar.node car Names.safety) (Tcar.state car);
          warmup car;
          let atk = Attacker.compromise car Names.door_locks in
          (* actuators are under the compromised firmware's direct control *)
          (Tcar.state car).State.doors_locked <- false;
          let _ = spoof atk Messages.ecu_command (one Messages.cmd_enable) in
          settle car;
          ( (Tcar.state car).State.ev_ecu_enabled
            && not (Tcar.state car).State.doors_locked,
            "doors opened locally; immobiliser state via forged enable" ));
    };
  ]

let all = scenarios

let find id = List.find_opt (fun s -> s.threat_id = id) scenarios

let run ?(seed = 42L) ~placement t =
  let succeeded, detail = t.execute ~seed placement in
  {
    threat_id = t.threat_id;
    platform = t.platform;
    succeeded;
    expected_residual = residual_of_catalog t.threat_id;
    detail;
  }

let run_all ?seed ~placement () =
  List.map (fun s -> run ?seed ~placement s) scenarios

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf "%-40s via %-12s %s%s" o.threat_id o.platform
    (if o.succeeded then "SUCCEEDED" else "blocked  ")
    (if o.expected_residual then " [residual per Table I]" else "")
