(** Local copy propagation.

    Within straight-line segments, a register defined by [mov dst, src]
    is replaced by [src] at its uses until either register is redefined.
    The paper names copy propagation as the pass that eliminates the
    parameter-buffering moves inline expansion introduces ("copy
    propagation and other optimizations can be applied to eliminate
    unnecessary overhead instructions").

    A kill visits only the copies recorded against the killed register,
    and a label clears only the registers set since the previous label,
    so a pass is linear in the body length however many registers
    inlining has added. *)

(** [propagate_func f] rewrites one function in place; returns the number
    of operands replaced. *)
val propagate_func : Impact_il.Il.func -> int

(** [propagate prog] rewrites every live function. *)
val propagate : Impact_il.Il.program -> int
