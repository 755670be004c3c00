(** The semantic analyses over typedtrees.

    - R1' interprocedural determinism taint: seed at the R1 constructs
      ({!Checks.seeds}), propagate caller-ward over the {!Callgraph},
      report each transitively tainted definition at its tainted call
      site (the seeds themselves are {!Checks}' R1 findings).  Seeds
      inside allowlisted files never start taint (the allowlist
      suppresses by root cause).
    - R6 lock discipline ([lib/parallel/]) and R7 resource lifetime
      ([lib/]), checked by one path-sensitive acquire/release walk per
      top-level binding; the rules differ only in their acquire/release
      heads, their branch merge and their reports.
      R6: every [Mutex.lock] released on all paths including raises, no
      double lock, no blocking call or raise while a deque/pool mutex is
      held.  R7: every let-bound [Unix.openfile] / [Unix.socket] /
      [Unix.accept] / [open_in*] / [open_out*] / [In_channel.open_*] /
      [Out_channel.open_*] (and the fd-per-shard [Array.init]
      aggregate) reaches a close on every path; a call that can raise
      while a resource is open and unprotected is a leak, reported at
      the open.  [Fun.protect] finalizers and [assert false] dead ends
      are understood; a local helper counts like the same code inline
      (its releases apply where it is called, its captures escape where
      it is handed to unknown code).  Escaping resources (returned,
      stored, captured) leave the analysis silently. *)

type report = {
  findings : Finding.t list;
  allow_uses : (string * string) list;  (** (rule id, allow prefix) that suppressed *)
}

val analyze : Typed_load.typed_file list -> report
