module bolted/cmd/boltedbench

go 1.24

require bolted v0.0.0

replace bolted => ../..
