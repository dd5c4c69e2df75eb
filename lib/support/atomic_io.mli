(** Atomic artifact writes: temp file + rename.

    [with_file path write] opens [path ^ ".tmp"], hands the channel to
    [write], then closes and renames over [path].  If [write] raises,
    the temp file is removed and the destination is untouched — an
    interrupted run never leaves a truncated artifact. *)

val with_file : string -> (out_channel -> unit) -> unit

val write_string : string -> string -> unit
(** [write_string path contents] = [with_file path (output_string oc contents)]. *)

val write_temp : string -> string -> unit
(** [write_temp tmp contents] writes [contents] to [tmp] and stops
    short of the rename, for callers that publish the file themselves
    (with [Sys.rename tmp path]) — e.g. under a lock, after writing
    outside it.  [tmp] must be private to the caller; if the write
    raises, [tmp] is removed. *)

val tmp_path : string -> string
(** The temp path used for [path] (exposed so tests can assert no
    leftovers). *)
