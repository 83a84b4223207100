/**
 * @file
 * Table 2: Llama3-8B activation memory with and without static memory
 * planning, across successive prefills of lengths 128/256/512/1024 and
 * successive decodes of batch 1/16/32/64 (§5.2). With planning and upper
 * bounds, storage is allocated once and reused across all shapes; without
 * it, the runtime pool allocates anew whenever an unseen size appears.
 */
#include "common.h"

int
main()
{
    using namespace relax;
    using namespace relax::bench;
    auto spec = device::rtx4090();
    auto config = frontend::LlamaConfig::llama3_8b();

    auto measure_prefill = [&](bool planning) {
        frontend::CompileOptions options;
        options.enableMemoryPlanning = planning;
        options.bounds = {{"b", 1}, {"n", 1024}, {"m", 1056}};
        frontend::LlamaConfig cfg = config;
        cfg.fixedBatch = 1;
        CompiledModel model = compileModel(cfg, spec, options);
        for (int64_t tokens : {128, 256, 512, 1024}) {
            model.machine->invoke("prefill", prefillArgs(model, 1, tokens));
        }
        return (double)model.dev->totalAllocatedBytes() / (1 << 20);
    };
    auto measure_decode = [&](bool planning) {
        frontend::CompileOptions options;
        options.enableMemoryPlanning = planning;
        options.bounds = {{"b", 64}, {"n", 1024}, {"m", 192}};
        double total = 0;
        for (int64_t batch : {1, 16, 32, 64}) {
            frontend::LlamaConfig cfg = config;
            cfg.fixedBatch = batch;
            CompiledModel model = compileModel(cfg, spec, options);
            for (int step = 0; step < 4; ++step) {
                model.machine->invoke("decode",
                                      decodeArgs(model, batch, 128 + step));
            }
            total += (double)model.dev->totalAllocatedBytes() / (1 << 20);
        }
        return total;
    };

    std::cout << "=== Table 2: Llama3-8B activation memory (MiB) ===\n\n";
    TablePrinter prefill({"Llama3-8B Prefill", "MiB"});
    prefill.addRow({"Relax w/o planning",
                    TablePrinter::fmt(measure_prefill(false), 1)});
    prefill.addRow({"Relax w/. planning",
                    TablePrinter::fmt(measure_prefill(true), 1)});
    prefill.print();
    std::cout << "\n";
    TablePrinter decode({"Llama3-8B Decode", "MiB"});
    decode.addRow({"Relax w/o planning",
                   TablePrinter::fmt(measure_decode(false), 1)});
    decode.addRow({"Relax w/. planning",
                   TablePrinter::fmt(measure_decode(true), 1)});
    decode.print();
    return 0;
}
