(** IL well-formedness checker: registers within bounds, labels defined
    exactly once and every branch targeting a defined label, site ids
    unique across the whole program, and call argument counts matching
    callee parameter counts.

    The pipeline does not run it.  Tests call it on lowered, inlined
    and cleaned-up programs, and the benchmark harness's probe on
    lowered and inlined ones. *)

(** [check prog] is [Ok ()] or [Error messages] listing every violation. *)
val check : Il.program -> (unit, string list) result

(** [check_exn prog] raises [Failure] with the collected messages.
    @raise Failure when the program is ill-formed. *)
val check_exn : Il.program -> unit
