(* Correctness of served answers against the in-process oracle.

   A decide batch is decided by one pool job, so under exactly one
   policy generation — but the client only knows a range of them: the
   generation acked before the batch was sent, up to the newest one that
   may have been swapped in before its answer arrived.  The batch passes
   when its answers equal the oracle's under one generation of that
   range.  An answer from a generation older than the one acked before
   sending therefore fails (stale after ack).

   Requests that hit the rated lock-command rule of [hardened] have no
   fixed answer: the daemon stamps them with its wall clock.  They are
   checked against the budget instead — allows per subject within any
   window at most [Mix.rate_count] — over every batch attributed to one
   generation (each generation's engine starts with a fresh budget). *)

type t = {
  mu : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** newest first, capped *)
  rated : (int * string, (int * int) list) Hashtbl.t;
      (** (generation, subject) -> (send, receive) of each allow *)
}

let create () =
  {
    mu = Mutex.create ();
    attempted = 0;
    failed = 0;
    reasons = [];
    rated = Hashtbl.create 16;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let attempt t = locked t (fun () -> t.attempted <- t.attempted + 1)

let fail t reason =
  locked t (fun () ->
      t.failed <- t.failed + 1;
      if List.length t.reasons < 20 then t.reasons <- reason :: t.reasons)

(* Does [allows] match generation [kind]?  Returns the rated allows per
   subject when it does. *)
let matches templates (b : Mix.batch) allows kind =
  let n = Array.length b.tmpl in
  let rec go i rated =
    if i = n then Some rated
    else
      let tp = templates.(b.tmpl.(i)) in
      if tp.Mix.rated && kind = Mix.Hardened then
        let subject = tp.req.Secpol_policy.Ir.subject in
        go (i + 1) (if allows.(i) then subject :: rated else rated)
      else if allows.(i) = Mix.expected tp kind then go (i + 1) rated
      else None
  in
  match go 0 [] with
  | None -> None
  | Some rated ->
      let within_budget =
        List.for_all
          (fun s -> List.length (List.filter (( = ) s) rated) <= Mix.rate_count)
          rated
      in
      if within_budget then Some rated else None

(* Check one answered batch.  [gens] lists the candidate generations,
   oldest first, with their policy kind.  Returns the generation the
   batch is attributed to (the oldest consistent one), or [None] when no
   candidate explains the answers. *)
let batch t templates (b : Mix.batch) allows ~gens ~send ~recv =
  let consistent =
    List.filter_map
      (fun (g, kind) ->
        Option.map
          (fun rated -> (g, kind, rated))
          (matches templates b allows kind))
      gens
  in
  match consistent with
  | [] -> None
  | (g, kind, rated) :: rest ->
      (* budget accounting needs a unique attribution; an ambiguous
         batch was still checked against every candidate above *)
      if rest = [] && kind = Mix.Hardened then
        locked t (fun () ->
            List.iter
              (fun s ->
                let k = (g, s) in
                let prev =
                  Option.value ~default:[] (Hashtbl.find_opt t.rated k)
                in
                Hashtbl.replace t.rated k ((send, recv) :: prev))
              rated);
      Some g

(* Window check over the allows of each (generation, subject): any
   [rate_count + 1] allows must span a full window.  The daemon stamped
   each allow between its batch's send and receive, so allows [i] and
   [i + rate_count] violate the budget for sure when the later one was
   received less than a window after the earlier one was sent.  Returns
   the number of violations. *)
let budget_violations t =
  let window = int_of_float (Mix.rate_window_s *. 1e9) - 1_000_000 in
  Hashtbl.fold
    (fun (g, s) allows acc ->
      let a = Array.of_list allows in
      Array.sort compare a;
      let v = ref 0 in
      for i = 0 to Array.length a - 1 - Mix.rate_count do
        let send_i, _ = a.(i) and _, recv_j = a.(i + Mix.rate_count) in
        if recv_j - send_i < window then begin
          incr v;
          if !v = 1 then
            Printf.eprintf
              "budget: generation %d subject %s over %d per %.0f s\n%!" g s
              Mix.rate_count Mix.rate_window_s
        end
      done;
      acc + !v)
    t.rated 0

(* The oracle must catch a flipped answer: answer a batch exactly as
   the oracle would, confirm it passes, flip one answer the two policies
   agree on and confirm it fails under both. *)
let self_test templates (b : Mix.batch) =
  let exact =
    Array.map (fun i -> Mix.expected templates.(i) Mix.Baseline) b.tmpl
  in
  let fixed i =
    let tp = templates.(b.tmpl.(i)) in
    (not tp.Mix.rated) && tp.hardened = tp.baseline
  in
  match List.find_opt fixed (List.init (Array.length b.tmpl) Fun.id) with
  | None -> false
  | Some i ->
      let flipped = Array.copy exact in
      flipped.(i) <- not flipped.(i);
      matches templates b exact Mix.Baseline <> None
      && matches templates b flipped Mix.Baseline = None
      && matches templates b flipped Mix.Hardened = None
