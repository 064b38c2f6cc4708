(* The three-mode car request mix, the two policies the serve workloads
   alternate between, and the oracle answers for every request of the
   mix under each.

   The mix is every designed producer write and consumer read of
   [Messages.all] in each of [Modes.all], plus a write of every message
   from infotainment (spoofed unless infotainment is a designed
   producer).  Batches draw uniformly from it with [Secpol_sim.Rng], so a
   seed fixes every batch. *)

module V = Secpol_vehicle
module Policy = Secpol_policy
module Ir = Policy.Ir
module Rng = Secpol_sim.Rng

type kind = Hardened | Baseline

(* Policy source text exactly as a client ships it in a reload. *)
let source kind ~version =
  Policy.Printer.to_string
    (match kind with
    | Hardened -> V.Policy_map.hardened ~version ()
    | Baseline -> V.Policy_map.baseline ~version ())

let db_of_source src =
  match Policy.Compile.of_source src with
  | Ok db -> db
  | Error e -> failwith ("policy source does not compile: " ^ e)

type template = {
  req : Ir.request;
  hardened : bool;  (** oracle answer under [hardened] *)
  baseline : bool;  (** oracle answer under [baseline] *)
  rated : bool;
      (** under [hardened] the answer comes from a rate-limited rule, so
          it depends on the daemon's wall clock: checked against the
          budget, not against a fixed answer *)
}

let requests () =
  let req mode node (m : V.Messages.t) op =
    {
      Ir.mode = V.Modes.name mode;
      subject = V.Names.asset_of_node node;
      asset = m.asset;
      op;
      msg_id = Some m.id;
    }
  in
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun (m : V.Messages.t) ->
          List.map (fun p -> req mode p m Ir.Write) m.producers
          @ List.map (fun c -> req mode c m Ir.Read) m.consumers
          @ [ req mode V.Names.infotainment m Ir.Write ])
        V.Messages.all)
    V.Modes.all
  |> List.sort_uniq compare

(* Oracle outcome of one request under a fresh engine: each request is
   decided at its own instant, 20 s apart, so no earlier decision has
   spent a rate budget it could see. *)
let oracle_outcomes db reqs =
  let engine = Policy.Engine.create ~cache:false db in
  List.mapi
    (fun i r -> Policy.Engine.decide ~now:(20.0 *. float_of_int i) engine r)
    reqs

let templates () =
  let reqs = requests () in
  let hard = oracle_outcomes (db_of_source (source Hardened ~version:1)) reqs in
  let base = oracle_outcomes (db_of_source (source Baseline ~version:1)) reqs in
  List.map2
    (fun (req, (h : Policy.Engine.outcome)) (b : Policy.Engine.outcome) ->
      {
        req;
        hardened = h.decision = Policy.Ast.Allow;
        baseline = b.decision = Policy.Ast.Allow;
        rated =
          (match h.matched with
          | Some r -> r.Ir.rate <> None
          | None -> false);
      })
    (List.combine reqs hard) base
  |> Array.of_list

let expected t = function Hardened -> t.hardened | Baseline -> t.baseline

(* The lock-command budget of [hardened]: allows per subject within any
   window. *)
let rate_count = 2

let rate_window_s = 10.0

(* The fail-safe probe the reload connection sends after every ack:
   [baseline] allows a connectivity lock command in fail-safe mode,
   [hardened] denies it (its situational rule). *)
let failsafe_probe =
  {
    Ir.mode = V.Modes.name V.Modes.Fail_safe;
    subject = V.Names.asset_connectivity;
    asset = V.Names.door_locks;
    op = Ir.Write;
    msg_id = Some V.Messages.lock_command;
  }

type batch = { tmpl : int array; reqs : Ir.request array }

let draw rng templates ~size =
  let tmpl = Array.init size (fun _ -> Rng.int rng (Array.length templates)) in
  { tmpl; reqs = Array.map (fun i -> templates.(i).req) tmpl }

let batches rng templates ~count ~size =
  Array.init count (fun _ -> draw rng templates ~size)
