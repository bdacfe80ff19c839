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

(* A value as a diff line shows it, shortened so that a subtree present
   on one side only never prints a whole panel. *)
let show j =
  let s = Json.to_string j in
  if String.length s <= 60 then s else String.sub s 0 57 ^ "..."

let diff old_doc new_doc =
  let out = ref [] in
  let differ path o n = out := (path, o, n) :: !out in
  let rec walk path o n =
    match (o, n) with
    | Json.Obj ofs, Json.Obj nfs ->
        List.iter
          (fun (k, ov) ->
            match List.assoc_opt k nfs with
            | Some nv -> walk (path ^ "." ^ k) ov nv
            | None -> differ (path ^ "." ^ k) (show ov) "(missing)")
          ofs;
        List.iter
          (fun (k, nv) ->
            if not (List.mem_assoc k ofs) then differ (path ^ "." ^ k) "(missing)" (show nv))
          nfs
    | Json.List ol, Json.List nl ->
        let rec pair i = function
          | ov :: ol, nv :: nl ->
              walk (Printf.sprintf "%s[%d]" path i) ov nv;
              pair (i + 1) (ol, nl)
          | [], [] -> ()
          | ol, nl ->
              differ (path ^ ".length")
                (string_of_int (i + List.length ol))
                (string_of_int (i + List.length nl))
        in
        pair 0 (ol, nl)
    | _ -> if o <> n then differ path (show o) (show n)
  in
  walk "" old_doc new_doc;
  List.rev !out
