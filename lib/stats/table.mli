(** Aligned ASCII tables for experiment reports.

    Every experiment renders its result rows through this module so that
    [vmk run <eid>] output and EXPERIMENTS.md share one format. *)

type t

val create : header:string list -> t
(** Table with the given column headers.

    @raise Invalid_argument on an empty header. *)

val add_row : t -> string list -> unit
(** Append a row. Rows shorter than the header are right-padded with empty
    cells; longer rows raise [Invalid_argument]. *)

val add_separator : t -> unit
(** Horizontal rule between row groups. *)

val row_count : t -> int

val cellf : ('a, Format.formatter, unit, string) format4 -> 'a
(** [cellf fmt …] builds one cell; convenience alias for
    {!Format.asprintf}. *)

val pp : Format.formatter -> t -> unit
(** Render with a header rule and per-column alignment (numbers look best
    right-aligned, so all cells are right-aligned except the first
    column). *)

val to_string : t -> string
