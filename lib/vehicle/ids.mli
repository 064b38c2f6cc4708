(** Intrusion detection over the car's bus trace and HPE counters.

    Enforcement decisions double as detection signal: a write block means a
    node tried to transmit outside its policy; a spoof alert means somebody
    used an identity they don't own.  The IDS folds those signals together
    with trace anomalies (unknown IDs, undesigned senders, frequency
    anomalies) into classified incidents — the observability the OEM's
    security operations centre would consume. *)

type kind =
  | Unknown_id of int
      (** a frame whose ID is not in the message map at all *)
  | Unapproved_source of { msg_id : int; sender : string }
      (** transmitted by a station that is not a designed producer *)
  | Impersonation of { node : string; alerts : int }
      (** the node's HPE flagged frames arriving under its exclusive IDs *)
  | Policy_violation of { node : string; blocks : int }
      (** the node's HPE write filter blocked its own transmissions — its
          firmware is trying to exceed policy *)
  | Flood of { msg_id : int; observed : int; expected : int }
      (** a periodic message far above its design rate in the scan window *)

type incident = { time : float; kind : kind }
(** [time] is the simulation time of the scan that raised it. *)

type t

val create : Topology_car.t -> t
(** Attach to a single-bus car (spec {!Segment_map.single_bus_spec}).
    Scanning is incremental: each {!scan} covers the trace since the
    previous one.
    @raise Invalid_argument ["Ids.create: needs a single-bus car, got N
    segments"] on a segmented car, where gateway re-transmissions would
    look like unapproved sources. *)

val scan : t -> incident list
(** Analyse new activity; returns (and records) fresh incidents. *)

val incidents : t -> incident list
(** Everything raised so far, chronological. *)

val kind_name : kind -> string

val pp_incident : Format.formatter -> incident -> unit
