/**
 * @file
 * The sequential reference the serving token oracles compare against:
 * one request at a time through its own VM over the dense prefill/decode
 * pair — prefill the prompt, then greedy decode one token per call until
 * max_new, the stop token, or the context window. The pair is compiled
 * once per oracle and shares the serving function's weights, so the
 * reference is independent of the pool-addressed path the engine runs.
 */
#ifndef RELAX_TESTS_SERVE_SEQUENTIAL_ORACLE_H_
#define RELAX_TESTS_SERVE_SEQUENTIAL_ORACLE_H_

#include <memory>
#include <string>
#include <vector>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "vm/vm.h"

namespace relax {
namespace serve {

class SequentialOracle
{
  public:
    SequentialOracle(const frontend::LlamaConfig& config,
                     const frontend::CompileOptions& options)
        : config_(config), device_(options.device),
          exec_(frontend::compile(frontend::buildDenseLlama(config),
                                  options)),
          weights_(frontend::makeLlamaWeights(config, /*with_data=*/true))
    {
    }

    /** The greedy tokens `prompt` generates served alone. */
    std::vector<int64_t>
    generate(const std::vector<int64_t>& prompt, int64_t max_new,
             int64_t stop_token = -1) const
    {
        // A fresh VM per request keeps runs fully independent.
        auto dev = std::make_shared<device::SimDevice>(device_);
        vm::VirtualMachine machine(exec_, dev, /*data_mode=*/true);
        auto invoke = [&](const std::string& fn, const NDArray& ids,
                          const std::vector<NDArray>& caches) {
            std::vector<vm::Value> args{ids};
            for (const auto& c : caches) args.emplace_back(c);
            for (const auto& w : weights_) args.emplace_back(w);
            return std::get<vm::TupleValuePtr>(machine.invoke(fn, args));
        };
        auto argmax_last = [](const NDArray& logits) {
            int64_t vocab = logits.shape().back();
            int64_t base = logits.numel() - vocab;
            int64_t best = 0;
            for (int64_t v = 1; v < vocab; ++v) {
                if (logits.at(base + v) > logits.at(base + best)) best = v;
            }
            return best;
        };

        std::vector<double> ids(prompt.begin(), prompt.end());
        auto state = invoke("prefill",
                            NDArray::fromVector({1, (int64_t)prompt.size()},
                                                DataType::i64(), ids),
                            {});
        std::vector<NDArray> caches;
        for (size_t i = 1; i < state->fields.size(); ++i) {
            caches.push_back(std::get<NDArray>(state->fields[i]));
        }
        int64_t ctx = (int64_t)prompt.size();
        std::vector<int64_t> generated;
        generated.push_back(
            argmax_last(std::get<NDArray>(state->fields[0])));
        while ((int64_t)generated.size() < max_new &&
               generated.back() != stop_token &&
               ctx + 1 < config_.maxContext) {
            NDArray next = NDArray::fromVector(
                {1, 1}, DataType::i64(), {(double)generated.back()});
            auto out = invoke("decode", next, caches);
            caches.clear();
            for (size_t i = 1; i < out->fields.size(); ++i) {
                caches.push_back(std::get<NDArray>(out->fields[i]));
            }
            ++ctx;
            generated.push_back(
                argmax_last(std::get<NDArray>(out->fields[0])));
        }
        return generated;
    }

  private:
    frontend::LlamaConfig config_;
    device::DeviceSpec device_;
    vm::ExecutablePtr exec_;
    std::vector<NDArray> weights_;
};

} // namespace serve
} // namespace relax

#endif // RELAX_TESTS_SERVE_SEQUENTIAL_ORACLE_H_
