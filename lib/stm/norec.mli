(** NOrec STM (Dalessandro, Spear, Scott — PPoPP 2010), built from scratch
    on simulated memory: a single global sequence lock, an indexed write
    buffer, and value-based conflict detection. Readers re-check the
    sequence lock after every read; when it moved, they re-validate their
    whole read set by value — the coherence-heavy step that memory tagging
    removes in {!Norec_tagged}. Satisfies opacity.

    There is one implementation. An STM built with [tagged = false] is
    plain NOrec and issues no MemTags operation. One built with
    [tagged = true] is the paper's tagged NOrec (Section 5.2, see
    {!Norec_tagged}): a tagged begin, tagged reads checked by a local
    [Validate], and a VAS lock acquire, falling back to the untagged path
    for the rest of an attempt once its tag set breaks. *)

(** The untagged instance: [name] is ["norec"] and [create] is
    [make ~name ~tagged:false]. *)
include Stm_intf.S

(** [make ~name ~tagged ctx] allocates an STM whose sequence lock is
    labelled [name ^ "-seqlock"] and whose abort events carry [name];
    [tagged] selects the MemTags fast path. {!Norec_tagged} is
    [make ~name:"norec-tagged" ~tagged:true]. *)
val make : name:string -> tagged:bool -> Mt_core.Ctx.t -> t
