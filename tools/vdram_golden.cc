/**
 * @file
 * Paper-artifact tool: computes every registry document
 * (src/core/paper_registry.h). Without arguments it prints each
 * artifact's tables and verdicts. With --out=DIR it writes, per
 * artifact, <name>.json (its golden file) and <name>.md (its generated
 * block of EXPERIMENTS.md); tools/regen_golden.sh installs both.
 * Exits 1 when any verdict fails.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/paper_registry.h"

using namespace vdram;

namespace {

bool
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::trunc);
    if (out)
        out << text;
    if (!out)
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_dir = argv[i] + 6;
        } else {
            std::fprintf(stderr,
                         "usage: vdram_golden [--out=DIR]\n"
                         "  no --out: print every artifact's tables and "
                         "verdicts\n");
            return 2;
        }
    }

    bool failed = false;
    for (const PaperArtifact& artifact : paperArtifacts()) {
        const ArtifactRecord doc = artifact.compute();
        const std::vector<Verdict> verdicts = judgeArtifact(artifact, doc);
        for (const Verdict& v : verdicts)
            failed |= !v.pass();
        const std::string markdown = renderArtifactMarkdown(doc, verdicts);
        if (out_dir.empty()) {
            std::printf("== %s — %s (%s) ==\n\n%s\n", artifact.id,
                        artifact.title, artifact.name, markdown.c_str());
            continue;
        }
        const std::string stem = out_dir + "/" + artifact.name;
        if (!writeFile(stem + ".json", doc.json() + "\n") ||
            !writeFile(stem + ".md", markdown))
            return 1;
    }
    return failed ? 1 : 0;
}
