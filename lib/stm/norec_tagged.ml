include Norec
let name = "norec-tagged"
let create = make ~name ~tagged:true
