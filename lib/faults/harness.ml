module Engine = Secpol_sim.Engine
module Can = Secpol_can
module Hpe = Secpol_hpe
module Policy = Secpol_policy
module Tcar = Secpol_vehicle.Topology_car
module Segment_map = Secpol_vehicle.Segment_map
module Modes = Secpol_vehicle.Modes
module Names = Secpol_vehicle.Names
module Policy_map = Secpol_vehicle.Policy_map

type record = {
  entry : Plan.entry;
  mutable injected_at : float option;
  mutable cleared_at : float option;
}

type t = {
  car : Tcar.t;
  obs : Secpol_obs.Registry.t;
  clock : Clock.t;
  watchdog : Watchdog.t;
  plan : Plan.t;
  records : record list;
  configs : ((Modes.t * string) * Hpe.Config.t) list;
      (* per (mode, node), cached while the policy engine answers: the
         scrub path must not depend on a live engine *)
  base_corrupt_prob : float;
  mutable mode_changes : (float * Modes.t) list; (* newest first *)
  mutable stall_started : float option;
  mutable stall_cleared : float option;
  mutable failsafe_entered : float option;
  mutable min_clock_factor : float;
  mutable babblers : int;
}

let sim t = Tcar.sim t.car

(* The watchdog's ping is a real decision request, not a health flag: a
   stalled engine raises [Unavailable] on [decide], which is exactly what
   a deployed monitor would observe. *)
let ping car () =
  match Tcar.policy_engine car with
  | None -> true
  | Some engine -> (
      let probe =
        {
          Policy.Ir.mode = Modes.name (Tcar.mode car);
          subject = Names.asset_of_node Names.safety;
          asset = Names.asset_safety_critical;
          op = Policy.Ir.Read;
          msg_id = None;
        }
      in
      match
        Policy.Engine.decide ~now:(Engine.now (Tcar.sim car)) engine probe
      with
      | _ -> true
      | exception Policy.Engine.Unavailable -> false)

let note_mode t mode =
  t.mode_changes <- (Engine.now (sim t), mode) :: t.mode_changes

let degrade t () =
  if Tcar.mode t.car <> Modes.Fail_safe then begin
    Tcar.enter_fail_safe t.car ~reason:"policy watchdog expired";
    let now = Engine.now (sim t) in
    if t.failsafe_entered = None then t.failsafe_entered <- Some now;
    note_mode t Modes.Fail_safe
  end

(* ---------- injection ---------- *)

let scrub_hpe t node =
  match Tcar.hpe t.car node with
  | None -> ()
  | Some hpe -> (
      let key = (Tcar.mode t.car, node) in
      match List.assoc_opt key t.configs with
      | None -> ()
      | Some config ->
          Hpe.Registers.hard_reset (Hpe.Engine.registers hpe);
          ignore (Hpe.Engine.provision hpe config))

let inject t r =
  let engine = sim t in
  let now = Engine.now engine in
  r.injected_at <- Some now;
  let clear f =
    Engine.schedule_in engine ~delay:(Fault.clears_after r.entry.Plan.kind)
      (fun engine ->
        f ();
        r.cleared_at <- Some (Engine.now engine))
  in
  match r.entry.Plan.kind with
  | Fault.Node_crash { node; down_for = _ } ->
      let n = Tcar.node t.car node in
      Can.Node.crash n;
      clear (fun () -> Can.Node.restart n)
  | Fault.Babbling_idiot { msg_id; period; duration } ->
      t.babblers <- t.babblers + 1;
      let name = Printf.sprintf "babbler%d" t.babblers in
      let rogue =
        Can.Node.create ~name (Tcar.bus t.car Segment_map.seg_bus)
      in
      let jam _ =
        ignore (Can.Node.send rogue (Can.Frame.data_std msg_id "\255"))
      in
      jam engine;
      Engine.every engine ~period ~until:(now +. duration) jam;
      clear (fun () -> Can.Node.detach rogue)
  | Fault.Corruption_burst { prob; duration = _ } ->
      let bus = Tcar.bus t.car Segment_map.seg_bus in
      Can.Bus.set_corrupt_prob bus prob;
      clear (fun () -> Can.Bus.set_corrupt_prob bus t.base_corrupt_prob)
  | Fault.Bus_partition { nodes; heal_after = _ } ->
      let stations = List.map (Tcar.node t.car) nodes in
      List.iter
        (fun n ->
          (* cut off, not power-cycled: error counters survive healing *)
          Can.Node.set_down n true;
          Can.Node.detach n)
        stations;
      clear (fun () ->
          List.iter
            (fun n ->
              Can.Node.set_down n false;
              Can.Node.reattach n)
            stations)
  | Fault.Hpe_corruption { node; scrub_after = _ } ->
      (match Tcar.hpe t.car node with
      | None -> ()
      | Some hpe ->
          (* a bit flip lands straight in approved-list RAM, bypassing the
             register interface — the seal is not updated, so the file
             fails its checksum and both gates fail closed *)
          Hpe.Approved_list.add
            (Hpe.Registers.read_list (Hpe.Engine.registers hpe))
            (Can.Identifier.standard 0x7DF));
      clear (fun () -> scrub_hpe t node)
  | Fault.Policy_stall { down_for = _ } ->
      (match Tcar.policy_engine t.car with
      | None -> ()
      | Some pe ->
          Policy.Engine.set_stalled pe true;
          if t.stall_started = None then t.stall_started <- Some now);
      clear (fun () ->
          match Tcar.policy_engine t.car with
          | None -> ()
          | Some pe ->
              Policy.Engine.set_stalled pe false;
              if t.stall_cleared = None then
                t.stall_cleared <- Some (Engine.now engine))
  | Fault.Clock_skew { factor; duration = _ } ->
      let prev = Clock.factor t.clock in
      Clock.set_factor t.clock factor;
      t.min_clock_factor <- Float.min t.min_clock_factor factor;
      clear (fun () -> Clock.set_factor t.clock prev)
  | Fault.Segment_partition _ | Fault.Segment_babble _ | Fault.Gateway_crash _
    ->
      (* segment-scoped plans are rejected in [create]: the flat-bus car
         has no segments or gateways to fault *)
      assert false

(* ---------- construction ---------- *)

let create ?(watchdog_period = 0.01) ?(watchdog_deadline = 0.05) ~seed ~plan
    () =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Harness.create: " ^ msg));
  if Plan.segment_scoped plan then
    invalid_arg
      "Harness.create: segment-scoped plan needs a topology car (Faults.Blast)";
  let obs = Secpol_obs.Registry.create () in
  let car =
    Tcar.create ~seed ~placement:`Distributed ~obs
      ~spec:(Segment_map.single_bus_spec ())
      ()
  in
  let configs =
    match Tcar.policy_engine car with
    | None -> []
    | Some engine ->
        List.concat_map
          (fun mode ->
            List.map
              (fun node ->
                ((mode, node), Policy_map.hpe_config_for engine ~mode ~node))
              Names.nodes)
          Modes.all
  in
  let clock = Clock.create (Tcar.sim car) in
  let records =
    List.map
      (fun entry -> { entry; injected_at = None; cleared_at = None })
      plan.Plan.entries
  in
  let rec t =
    lazy
      {
        car;
        obs;
        clock;
        watchdog =
          Watchdog.create ~period:watchdog_period ~deadline:watchdog_deadline
            ~clock ~ping:(ping car)
            ~on_expire:(fun () -> degrade (Lazy.force t) ())
            (Tcar.sim car);
        plan;
        records;
        configs;
        base_corrupt_prob =
          Can.Bus.corrupt_prob (Tcar.bus car Segment_map.seg_bus);
        mode_changes = [ (0.0, Tcar.mode car) ];
        stall_started = None;
        stall_cleared = None;
        failsafe_entered = None;
        min_clock_factor = 1.0;
        babblers = 0;
      }
  in
  let t = Lazy.force t in
  List.iter
    (fun r ->
      Engine.schedule (Tcar.sim car) ~at:r.entry.Plan.at (fun _ -> inject t r))
    records;
  t

let run_until t until = Engine.run_until (sim t) until

let run t = run_until t t.plan.Plan.horizon

let car t = t.car

let obs t = t.obs

let clock t = t.clock

let watchdog t = t.watchdog

let plan t = t.plan

let records t = t.records

let stall_started t = t.stall_started

let stall_cleared t = t.stall_cleared

let failsafe_entered t = t.failsafe_entered

let min_clock_factor t = t.min_clock_factor

(* Mode as the harness saw it at [time]; changes land newest-first. *)
let mode_at t time =
  let rec find = function
    | [] -> Modes.Normal
    | (at, mode) :: older -> if at <= time then mode else find older
  in
  find t.mode_changes

let mode_changes t = List.rev t.mode_changes

let config_for t ~mode ~node = List.assoc_opt (mode, node) t.configs

(* The fail-safe deadline bound: from the moment the stall starts, the
   watchdog needs one period to notice, [deadline] seconds of *local*
   clock to trip, and one more period of slack for the discrete check
   grid — all stretched by the slowest clock rate seen. *)
let failsafe_bound t ~stall_at =
  let wd = t.watchdog in
  stall_at
  +. ((Watchdog.deadline wd +. (2.0 *. Watchdog.period wd))
     /. t.min_clock_factor)
