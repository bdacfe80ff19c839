module Json = Mt_obs.Json

let schema_version = 5

let make ~generator sections =
  Json.Obj
    (("schema_version", Json.Int schema_version)
    :: ("generator", Json.String ("memory-tagging-sim " ^ generator))
    :: sections)

let write file doc =
  Json.to_file file doc;
  Printf.printf "Wrote benchmark JSON to %s\n" file
