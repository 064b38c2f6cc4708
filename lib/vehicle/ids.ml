module Trace = Secpol_can.Trace
module Frame = Secpol_can.Frame
module Identifier = Secpol_can.Identifier

type kind =
  | Unknown_id of int
  | Unapproved_source of { msg_id : int; sender : string }
  | Impersonation of { node : string; alerts : int }
  | Policy_violation of { node : string; blocks : int }
  | Flood of { msg_id : int; observed : int; expected : int }

type incident = { time : float; kind : kind }

type t = {
  car : Topology_car.t;
  trace : Trace.t;
  mutable seen_entries : int;
  mutable seen_alerts : (string * int) list;
  mutable seen_blocks : (string * int) list;
  mutable last_scan : float;
  mutable log : incident list; (* newest first *)
}

(* The trace checks assume one broadcast bus: on a segmented car a
   gateway re-transmits frames under its own name, which would read as an
   unapproved source. *)
let create car =
  let trace =
    match Topology_car.segments car with
    | [ seg ] -> Secpol_can.Bus.trace (Topology_car.bus car seg)
    | segs ->
        invalid_arg
          (Printf.sprintf
             "Ids.create: needs a single-bus car, got %d segments"
             (List.length segs))
  in
  let hpes = Topology_car.hpes car in
  {
    car;
    trace;
    seen_entries = 0;
    seen_alerts = List.map (fun (n, _) -> (n, 0)) hpes;
    seen_blocks = List.map (fun (n, _) -> (n, 0)) hpes;
    last_scan = Secpol_sim.Engine.now (Topology_car.sim car);
    log = [];
  }

(* How often we would raise the same (deduplicated) incident: once per scan. *)
let dedup kinds =
  List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) [] kinds
  |> List.rev

let flood_factor = 3

let scan t =
  let now = Secpol_sim.Engine.now (Topology_car.sim t.car) in
  let entries = Trace.entries t.trace in
  let fresh = List.filteri (fun i _ -> i >= t.seen_entries) entries in
  t.seen_entries <- List.length entries;
  let window = now -. t.last_scan in
  t.last_scan <- now;
  let tx_counts : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let trace_kinds =
    List.filter_map
      (fun (e : Trace.entry) ->
        match (e.event, e.frame.Frame.id) with
        | Trace.Tx_ok, Identifier.Standard id -> (
            Hashtbl.replace tx_counts id
              (1 + Option.value ~default:0 (Hashtbl.find_opt tx_counts id));
            match Messages.find id with
            | None -> Some (Unknown_id id)
            | Some m ->
                if List.mem e.node m.producers then None
                else Some (Unapproved_source { msg_id = id; sender = e.node }))
        | Trace.Tx_ok, Identifier.Extended _ ->
            Some (Unknown_id (Identifier.raw e.frame.Frame.id))
        | _ -> None)
      fresh
  in
  let flood_kinds =
    if window <= 0.0 then []
    else
      Hashtbl.fold
        (fun id count acc ->
          match Messages.find id with
          | Some m -> (
              match m.period with
              | Some period ->
                  let expected =
                    max 1 (int_of_float (ceil (window /. period)))
                  in
                  if count > flood_factor * expected then
                    Flood { msg_id = id; observed = count; expected } :: acc
                  else acc
              | None -> acc)
          | None -> acc)
        tx_counts []
  in
  let hpe_kinds =
    List.concat_map
      (fun (name, hpe) ->
        let alerts = Secpol_hpe.Engine.spoof_alerts hpe in
        let blocks = Secpol_hpe.Engine.write_blocks hpe in
        let prev_alerts =
          Option.value ~default:0 (List.assoc_opt name t.seen_alerts)
        in
        let prev_blocks =
          Option.value ~default:0 (List.assoc_opt name t.seen_blocks)
        in
        t.seen_alerts <-
          (name, alerts) :: List.remove_assoc name t.seen_alerts;
        t.seen_blocks <-
          (name, blocks) :: List.remove_assoc name t.seen_blocks;
        (if alerts > prev_alerts then
           [ Impersonation { node = name; alerts = alerts - prev_alerts } ]
         else [])
        @
        if blocks > prev_blocks then
          [ Policy_violation { node = name; blocks = blocks - prev_blocks } ]
        else [])
      (Topology_car.hpes t.car)
  in
  let fresh_incidents =
    List.map
      (fun kind -> { time = now; kind })
      (dedup (trace_kinds @ flood_kinds @ hpe_kinds))
  in
  t.log <- List.rev_append fresh_incidents t.log;
  fresh_incidents

let incidents t = List.rev t.log

let kind_name = function
  | Unknown_id _ -> "unknown-id"
  | Unapproved_source _ -> "unapproved-source"
  | Impersonation _ -> "impersonation"
  | Policy_violation _ -> "policy-violation"
  | Flood _ -> "flood"

let pp_incident ppf i =
  Format.fprintf ppf "[%8.3f] " i.time;
  match i.kind with
  | Unknown_id id -> Format.fprintf ppf "unknown message id 0x%x on the bus" id
  | Unapproved_source { msg_id; sender } ->
      Format.fprintf ppf "%s transmitted 0x%x, which it is not designed to produce"
        sender msg_id
  | Impersonation { node; alerts } ->
      Format.fprintf ppf "%d frame(s) impersonating %s" alerts node
  | Policy_violation { node; blocks } ->
      Format.fprintf ppf "%s attempted %d transmission(s) outside its policy"
        node blocks
  | Flood { msg_id; observed; expected } ->
      Format.fprintf ppf "0x%x flooding: %d frames where ~%d expected" msg_id
        observed expected
