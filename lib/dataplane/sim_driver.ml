include Driver.Make (Apor_overlay.Cluster)

let attach ~cluster = attach cluster
