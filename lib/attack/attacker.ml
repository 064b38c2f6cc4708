module Tcar = Secpol_vehicle.Topology_car
module Node = Secpol_can.Node
module Controller = Secpol_can.Controller
module Frame = Secpol_can.Frame

type t = {
  node : Node.t;
  hpe : Secpol_hpe.Engine.t option;
  mutable captured : Frame.t list; (* newest first *)
}

let hook_capture t =
  Node.set_on_receive t.node (fun _node ~sender:_ frame ->
      t.captured <- frame :: t.captured)

let compromise car name =
  let node = Tcar.node car name in
  (* Malicious firmware clears its own software filter bank. *)
  Controller.set_filters (Node.controller node) [];
  let t = { node; hpe = Tcar.hpe car name; captured = [] } in
  hook_capture t;
  t

let alien car ~segment ~name =
  let node = Node.create ~filters:[] ~name (Tcar.bus car segment) in
  let t = { node; hpe = None; captured = [] } in
  hook_capture t;
  t

let node_name t = Node.name t.node

let send t frame = Node.send t.node frame

let spoof_command t ~msg_id cmd =
  send t (Frame.data (Secpol_can.Identifier.standard msg_id) (String.make 1 cmd))

let try_reconfigure_hpe t =
  match t.hpe with
  | None -> Ok ()
  | Some hpe ->
      Secpol_hpe.Registers.write_reg
        (Secpol_hpe.Engine.registers hpe)
        ~addr:Secpol_hpe.Registers.cmd_clear 0

let captured t = List.rev t.captured

let replay t ?(filter = fun _ -> true) () =
  List.fold_left
    (fun acc frame -> if filter frame && send t frame then acc + 1 else acc)
    0 (captured t)
