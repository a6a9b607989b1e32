module github.com/pulse-serverless/pulse/bench

go 1.22

require github.com/pulse-serverless/pulse v0.0.0

replace github.com/pulse-serverless/pulse => ../
