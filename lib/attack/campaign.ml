module V = Secpol_vehicle
module Tcar = V.Topology_car
module Messages = V.Messages
module Names = V.Names
module Trace = Secpol_can.Trace
module Rng = Secpol_sim.Rng

let level_name = function
  | `Unfiltered -> "no enforcement"
  | `Central -> "software filters"
  | `Distributed -> "hardware policy engine"

type summary = {
  placement : Tcar.placement;
  outcomes : Scenarios.outcome list;
  succeeded : int;
  residual_succeeded : int;
  clean_succeeded : int;
}

let run_level ?seed placement =
  let outcomes = Scenarios.run_all ?seed ~placement () in
  let succeeded =
    List.length (List.filter (fun (o : Scenarios.outcome) -> o.succeeded) outcomes)
  in
  let residual_succeeded =
    List.length
      (List.filter
         (fun (o : Scenarios.outcome) -> o.succeeded && o.expected_residual)
         outcomes)
  in
  { placement; outcomes; succeeded; residual_succeeded;
    clean_succeeded = succeeded - residual_succeeded }

let table ?seed () =
  List.map (run_level ?seed) [ `Unfiltered; `Central; `Distributed ]

let matches_paper summaries =
  let find p = List.find_opt (fun s -> s.placement = p) summaries in
  match (find `Unfiltered, find `Distributed) with
  | Some off, Some hw ->
      let total = List.length off.outcomes in
      let residual_total =
        List.length
          (List.filter
             (fun (o : Scenarios.outcome) -> o.expected_residual)
             off.outcomes)
      in
      off.succeeded = total
      && hw.clean_succeeded = 0
      && hw.residual_succeeded = residual_total
  | _ -> false

(* Command messages a forger would abuse: everything actuating. *)
let command_ids =
  [
    Messages.ecu_command;
    Messages.eps_command;
    Messages.engine_command;
    Messages.lock_command;
    Messages.modem_command;
    Messages.sw_install;
  ]

type sweep_point = { compromised : int; attack_frames : int; delivered : int }

let firmware_sweep ?(seed = 42L) ?(frames_per_node = 20) placement
    ~compromised_counts =
  List.map
    (fun k ->
      let car = Scenarios.car ~seed placement in
      Tcar.run car ~seconds:0.2;
      let rng = Rng.create (Int64.add seed (Int64.of_int k)) in
      let order = Array.of_list Names.nodes in
      Rng.shuffle rng order;
      let chosen = Array.to_list (Array.sub order 0 (min k (Array.length order))) in
      let attackers = List.map (fun n -> (n, Attacker.compromise car n)) chosen in
      let attack_frames = ref 0 in
      List.iter
        (fun (name, atk) ->
          let foreign_ids =
            List.filter
              (fun id ->
                not
                  (List.exists
                     (fun (m : Messages.t) -> m.id = id)
                     (Messages.produced_by name)))
              command_ids
          in
          for i = 1 to frames_per_node do
            let id = List.nth foreign_ids (i mod List.length foreign_ids) in
            incr attack_frames;
            ignore
              (Primitives.spoof atk ~msg_id:id
                 ~payload:(String.make 1 Messages.cmd_disable))
          done)
        attackers;
      Tcar.run car ~seconds:1.0;
      let delivered =
        Trace.count
          (Secpol_can.Bus.trace (Tcar.bus car V.Segment_map.seg_bus))
          (fun e ->
            match e.Trace.event with
            | Trace.Rx_delivered _ ->
                List.mem e.Trace.node chosen
                && (match e.Trace.frame.Secpol_can.Frame.id with
                   | Secpol_can.Identifier.Standard id ->
                       List.mem id command_ids
                       && not
                            (List.exists
                               (fun (m : Messages.t) -> m.id = id)
                               (Messages.produced_by e.Trace.node))
                   | Secpol_can.Identifier.Extended _ -> false)
            | _ -> false)
      in
      { compromised = k; attack_frames = !attack_frames; delivered })
    compromised_counts

type benign_stats = {
  seconds : float;
  deliveries : int;
  hpe_blocks : int;
  undelivered : int;
}

let designed_deliveries car =
  Trace.count (Secpol_can.Bus.trace (Tcar.bus car V.Segment_map.seg_bus))
    (fun e ->
      match e.Trace.event with
      | Trace.Rx_delivered receiver -> (
          match e.Trace.frame.Secpol_can.Frame.id with
          | Secpol_can.Identifier.Standard id -> (
              match Messages.find id with
              | Some m -> List.mem receiver m.consumers
              | None -> false)
          | Secpol_can.Identifier.Extended _ -> false)
      | _ -> false)

let benign_run ?(seed = 42L) ?(seconds = 5.0) placement =
  let run p =
    let car = Scenarios.car ~seed p in
    Tcar.run car ~seconds;
    car
  in
  let baseline = designed_deliveries (run `Unfiltered) in
  let car = run placement in
  let deliveries = designed_deliveries car in
  {
    seconds;
    deliveries;
    hpe_blocks = Tcar.false_blocks_in car V.Segment_map.seg_bus;
    undelivered = max 0 (baseline - deliveries);
  }

let pp_summary ppf s =
  Format.fprintf ppf "%-24s %2d/%d attacks succeed (%d residual, %d clean)"
    (level_name s.placement) s.succeeded (List.length s.outcomes)
    s.residual_succeeded s.clean_succeeded
