(** The BENCH JSON document: the one place that stamps the schema version
    and the generator on the output of [bench/main.exe] and
    [bin/memtag_bench.exe], and the exact comparison the regression
    sentinel applies to it. [bin/json_check.exe --bench] rejects any
    document older than {!schema_version}. *)

val schema_version : int

(** [make ~generator sections] is the document object:
    ["schema_version"], ["generator"] (["memory-tagging-sim " ^
    generator]), then [sections] in the given order. *)
val make : generator:string -> (string * Mt_obs.Json.t) list -> Mt_obs.Json.t

(** [write file doc] writes [doc] to [file] and prints
    ["Wrote benchmark JSON to FILE"] on stdout. *)
val write : string -> Mt_obs.Json.t -> unit

(** [diff old_doc new_doc] is every leaf where the two documents differ,
    in document order, as [(path, old, new)] with the values rendered as
    JSON (shortened past 60 characters). Paths read
    [".figures.fig2[0].points[1].result.throughput_per_kcycle"]; a key on
    one side only shows ["(missing)"] on the other, and a list whose
    length changed reports [".length"] after its common prefix. There is
    no tolerance: [[]] means the documents are equal. *)
val diff : Mt_obs.Json.t -> Mt_obs.Json.t -> (string * string * string) list
