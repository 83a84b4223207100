/**
 * @file
 * Universal deployment (§5.3): one model definition compiled for every
 * simulated backend in the catalog, printing which libraries each target
 * uses, whether execution graphs apply, and the resulting decode
 * latency — the "compile once per target, run anywhere" story.
 */
#include <iostream>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "support/table_printer.h"
#include "vm/vm.h"

int
main()
{
    using namespace relax;
    frontend::LlamaConfig config =
        frontend::LlamaConfig::redpajama_3b().withQuant(
            frontend::Quant::kQ4);
    config.fixedBatch = 1;

    TablePrinter table({"device", "backend", "gemm lib", "exec graphs",
                        "ms/token"});
    for (const char* name :
         {"rtx4090", "radeon7900xtx", "m2ultra", "steamdeck", "jetsonorin",
          "webgpu_m3max", "s24"}) {
        device::DeviceSpec spec = device::deviceByName(name);
        frontend::CompileOptions options;
        options.device = spec;
        options.bounds = {{"b", 1}, {"n", 1024}, {"m", 192}};
        passes::TargetInfo target =
            frontend::targetFromDevice(spec, options);
        auto exec =
            frontend::compile(frontend::buildDenseLlama(config), options);
        auto dev = std::make_shared<device::SimDevice>(spec);
        vm::VirtualMachine machine(exec, dev, /*data_mode=*/false);

        std::vector<vm::Value> args;
        args.emplace_back(NDArray::metaOnly({1, 1}, DataType::i64()));
        for (int64_t layer = 0; layer < config.numLayers; ++layer) {
            for (int i = 0; i < 2; ++i) {
                args.emplace_back(NDArray::metaOnly(
                    {1, config.numHeads, 128, config.headDim},
                    DataType::f16()));
            }
        }
        for (auto& w : frontend::makeLlamaWeights(config, false)) {
            args.emplace_back(std::move(w));
        }
        machine.invoke("decode", args); // warm-up/capture
        machine.invoke("decode", args);
        table.addRow({spec.name, spec.backend,
                      target.gemmLibrary ? *target.gemmLibrary : "-",
                      target.supportsExecutionGraphs ? "yes" : "no",
                      TablePrinter::fmt(
                          machine.lastRunStats().latencyUs / 1e3)});
    }
    table.print();
    std::cout << "multiplatform_deploy: OK\n";
    return 0;
}
