(** The BENCH JSON document: the one place that stamps the schema version
    and the generator on the output of [bench/main.exe] and
    [bin/memtag_bench.exe]. [bin/json_check.exe --bench] rejects any
    document older than {!schema_version}. *)

val schema_version : int

(** [make ~generator sections] is the document object:
    ["schema_version"], ["generator"] (["memory-tagging-sim " ^
    generator]), then [sections] in the given order. *)
val make : generator:string -> (string * Mt_obs.Json.t) list -> Mt_obs.Json.t

(** [write file doc] writes [doc] to [file] and prints
    ["Wrote benchmark JSON to FILE"] on stdout. *)
val write : string -> Mt_obs.Json.t -> unit
