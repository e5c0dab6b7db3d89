(** Lexical scan for the comment escape hatch

    {[ (* lint: allow D2 — reason *) ]}

    A finding of rule [R] at line [L] is suppressed when an allow
    comment naming [R] sits on line [L] itself or on line [L-1]. *)

type t

val scan : string -> t
(** Scan raw source text (comments are gone from the parsetree). *)

val allows : t -> line:int -> rule:string -> bool
