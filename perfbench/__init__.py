"""Same-host, layer-resolved benchmark of the RAID-II stack (see README.md)."""
