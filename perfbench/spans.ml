(* In-memory spans for the traced runs.

   A span is a named interval on the monotonic ns clock, with the span
   that caused it and the message it belongs to.  Each thread or domain
   records into its own buffer (no locking on the recording path); the
   buffers are merged, checked and written out when the run ends. *)

type span = {
  sid : int;
  parent : int;  (** [0] for a root *)
  name : string;
  msg : int;  (** message (batch, slice) the span belongs to *)
  start : int;
  stop : int;
}

type buf = { mutable spans : span list }

let create () = { spans = [] }

let next_sid = Atomic.make 1

let fresh () = Atomic.fetch_and_add next_sid 1

(* Record a finished span; [sid] lets a parent be recorded after the
   children that name it. *)
let record buf ?(sid = fresh ()) ?(parent = 0) ~msg name start stop =
  buf.spans <- { sid; parent; name; msg; start; stop } :: buf.spans;
  sid

(* Time [f] as a span. *)
let time buf ?parent ~msg name f =
  let start = Util.now_ns () in
  let r = f () in
  ignore (record buf ?parent ~msg name start (Util.now_ns ()));
  r

let merge bufs = List.concat_map (fun b -> List.rev b.spans) bufs

(* Length of the union of [intervals]. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) ->
            if s <= ce then (total, Some (cs, max ce e))
            else (total + (ce - cs), Some (s, e)))
      (0, None) sorted
  in
  match last with None -> total | Some (s, e) -> total + (e - s)

(* Self time of every span: its duration minus the part its children
   cover, with the problems found: a child that does not lie inside
   its parent, a dangling parent, a negative self time. *)
let self_times spans =
  let by_sid = Hashtbl.create 1024 in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace by_sid s.sid s;
      if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let selfs =
    List.map
      (fun s ->
        (if s.parent <> 0 then
           match Hashtbl.find_opt by_sid s.parent with
           | None ->
               problem "span %s#%d: parent %d missing" s.name s.sid s.parent
           | Some p ->
               if s.start < p.start || s.stop > p.stop then
                 problem "span %s [%d,%d] outside parent %s [%d,%d]" s.name
                   s.start s.stop p.name p.start p.stop);
        let kids =
          List.map
            (fun c -> (c.start, c.stop))
            (Hashtbl.find_all children s.sid)
        in
        let self = s.stop - s.start - covered kids in
        if self < 0 then
          problem "span %s#%d: negative self time %d" s.name s.sid self;
        (s, self))
      spans
  in
  (selfs, List.rev !problems)

(* Median self time, in ns, of the spans called [name]. *)
let median_self selfs name =
  Util.median
    (List.filter_map
       (fun (s, self) ->
         if s.name = name then Some (float_of_int self) else None)
       selfs)

let write path spans =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "sid\tparent\tname\tmsg\tstart_ns\tstop_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" s.sid s.parent s.name
            s.msg s.start s.stop)
        spans)
