/* MPPPB Stage-2 replay of one candidate over flat arrays.
 *
 * The C form of the per-access replay in repro.sim.llc.LLCSimulator
 * for an MPPPB policy: cache lookup, perceptron sum, sampler training
 * and LRU shuffle, the MPPPB decision cascade, the MDPP (tree PLRU) or
 * SRRIP default-policy walks, fills and evictions.  repro.sim.kernel
 * .native lowers the Python state to these arrays, checks every index
 * this file reads against its array first (the preflight), and writes
 * the state back afterwards.  Nothing here bounds-checks.
 *
 * Every array is row-major int64_t except the two byte columns,
 * prefetch (input) and outcomes (output, 0/1 per access), and slots,
 * which points to one int64_t column per shared feature slot.  Scalars
 * arrive in p[], indexed by the P_* names below, which must match the
 * order of _PARAMS in native.py.
 */
#include <stdint.h>

enum {
    P_N, P_WARMUP, P_NEEDS_H, P_NF, P_KIND, P_WAYS, P_LEVELS,
    P_PROMOTE, P_RRPV_MAX, P_TAU_BYPASS, P_TAU1, P_TAU2, P_TAU3,
    P_P1, P_P2, P_P3, P_TAU_NP, P_THETA, P_SAMPLER_WAYS,
    P_CONF_MIN, P_CONF_MAX, P_WEIGHT_MIN, P_WEIGHT_MAX, P_XOR_MASK
};

enum { KIND_MDPP = 0, KIND_SRRIP = 1 };
enum { F_SLOT = 0, F_CONST0 = 1, F_INSERT = 2, F_BURST = 3, F_LASTMISS = 4 };

/* Point way's root-path bits in tree so it occupies position. */
static void plru_place(int64_t *tree, int64_t levels, int64_t way,
                       int64_t position)
{
    int64_t node = 0;
    for (int64_t level = 0; level < levels; level++) {
        int64_t shift = levels - 1 - level;
        int64_t d = (way >> shift) & 1;
        tree[node] = ((position >> shift) & 1) ? d : 1 - d;
        node = 2 * node + 1 + d;
    }
}

/* Counters: [0:4] warm hits, demand hits, bypasses, evictions; [4:8]
 * the same for the measured segment; [8] promotions suppressed; [9]
 * live trainings; [10] dead trainings. */
void mpppb_replay(const int64_t *p,
                  const int64_t *blocks, const int64_t *set_idxs,
                  const int64_t *tags, const int64_t *samp_idxs,
                  const uint8_t *prefetch, const int64_t *const *slots,
                  const int64_t *feat_kind, const int64_t *feat_arg,
                  const int64_t *feat_xor, const int64_t *assoc,
                  const int64_t *fa_start, const int64_t *fa_feats,
                  const int64_t *woff, int64_t *weights,
                  int64_t *ctags, int64_t *fills, int64_t *tree_bits,
                  int64_t *rrpv, int64_t *s_tags, int64_t *s_conf,
                  int64_t *s_idx, int64_t *s_len, int64_t *lastm,
                  uint8_t *outcomes, int64_t *counters, int64_t *scratch)
{
    const int64_t n = p[P_N], warmup = p[P_WARMUP];
    const int64_t nf = p[P_NF], kind = p[P_KIND], ways = p[P_WAYS];
    const int64_t levels = p[P_LEVELS], promote = p[P_PROMOTE];
    const int64_t theta = p[P_THETA], sways = p[P_SAMPLER_WAYS];
    const int64_t wmin = p[P_WEIGHT_MIN], wmax = p[P_WEIGHT_MAX];
    const int64_t tree_w = ways - 1;

    for (int64_t i = 0; i < n; i++) {
        const int64_t block = blocks[i];
        const int64_t s = set_idxs[i];
        int64_t *row = ctags + s * ways;
        int64_t *tree = tree_bits + s * tree_w;
        int64_t *rr = rrpv + s * ways;

        int64_t way = -1;
        for (int64_t w = 0; w < ways; w++) {
            if (row[w] == block) {
                way = w;
                break;
            }
        }
        const int64_t lm = lastm[s];
        int64_t mru = 0, position = 0;
        if (way >= 0) {
            if (kind == KIND_MDPP) {
                int64_t node = 0;
                for (int64_t level = 0; level < levels; level++) {
                    int64_t d = (way >> (levels - 1 - level)) & 1;
                    position = (position << 1) | (tree[node] == d);
                    node = 2 * node + 1 + d;
                }
                mru = position == 0;
            } else {
                mru = rr[way] == 0;
            }
        }

        /* Perceptron sum; the indices are kept for sampler training. */
        const int64_t ins = way >= 0 ? 0 : 1;
        const int64_t hv = p[P_NEEDS_H] ? slots[0][i] : 0;
        int64_t total = 0;
        for (int64_t f = 0; f < nf; f++) {
            int64_t fk = feat_kind[f], idx;
            if (fk == F_SLOT) {
                idx = slots[feat_arg[f]][i];
            } else if (fk == F_CONST0) {
                idx = 0;
            } else {
                int64_t bit = fk == F_INSERT ? ins
                              : fk == F_BURST ? mru : lm;
                idx = feat_xor[f] ? (bit ^ hv) & p[P_XOR_MASK] : bit;
            }
            scratch[f] = idx;
            total += weights[woff[f] + idx];
        }
        int64_t conf = total;
        if (conf > p[P_CONF_MAX])
            conf = p[P_CONF_MAX];
        else if (conf < p[P_CONF_MIN])
            conf = p[P_CONF_MIN];

        const int64_t si = samp_idxs[i];
        if (si >= 0) {
            const int64_t tag = tags[i];
            int64_t *st = s_tags + si * sways;
            int64_t *sc = s_conf + si * sways;
            int64_t *sx = s_idx + si * sways * nf;
            const int64_t length = s_len[si];
            int64_t sp = -1;
            for (int64_t j = 0; j < length; j++) {
                if (st[j] == tag) {
                    sp = j;
                    break;
                }
            }
            /* Reused: train the entry's features toward "live". */
            if (sp >= 0 && sc[sp] > -theta) {
                for (int64_t f = 0; f < nf; f++) {
                    if (sp < assoc[f]) {
                        int64_t *w = weights + woff[f] + sx[sp * nf + f];
                        if (*w > wmin)
                            *w -= 1;
                        counters[9]++;
                    }
                }
            }
            /* Entries demoted past a feature's associativity: "dead". */
            const int64_t bound = sp >= 0 ? sp : length;
            for (int64_t pos = 0; pos < bound; pos++) {
                const int64_t fs = fa_start[pos + 1], fe = fa_start[pos + 2];
                if (fe > fs && sc[pos] < theta) {
                    for (int64_t jj = fs; jj < fe; jj++) {
                        int64_t f = fa_feats[jj];
                        int64_t *w = weights + woff[f] + sx[pos * nf + f];
                        if (*w < wmax)
                            *w += 1;
                        counters[10]++;
                    }
                }
            }
            int64_t top = sp;
            if (sp < 0) {
                top = length < sways ? length : sways - 1;
                s_len[si] = top + 1;
            }
            for (int64_t j = top; j > 0; j--) {
                st[j] = st[j - 1];
                sc[j] = sc[j - 1];
                for (int64_t f = 0; f < nf; f++)
                    sx[j * nf + f] = sx[(j - 1) * nf + f];
            }
            st[0] = tag;
            sc[0] = conf;
            for (int64_t f = 0; f < nf; f++)
                sx[f] = scratch[f];
        }

        int64_t *c = counters + (i < warmup ? 0 : 4);
        if (way >= 0) {
            c[0]++;
            if (!prefetch[i])
                c[1]++;
            outcomes[i] = 1;
            if (conf > p[P_TAU_NP]) {
                counters[8]++;
            } else if (kind == KIND_MDPP) {
                if (position > promote)
                    plru_place(tree, levels, way, promote);
            } else {
                rr[way] = 0;
            }
            lastm[s] = 0;
            continue;
        }
        outcomes[i] = 0;
        lastm[s] = 1;
        if (conf > p[P_TAU_BYPASS]) {
            c[2]++;
            continue;
        }
        int64_t fw = fills[s];
        if (fw < ways) {
            fills[s] = fw + 1;
        } else {
            if (kind == KIND_MDPP) {
                int64_t node = 0;
                for (int64_t level = 0; level < levels; level++)
                    node = 2 * node + 1 + tree[node];
                fw = node - tree_w;
            } else {
                fw = -1;
                while (fw < 0) {
                    for (int64_t w = 0; w < ways; w++) {
                        if (rr[w] >= p[P_RRPV_MAX]) {
                            fw = w;
                            break;
                        }
                    }
                    if (fw < 0)
                        for (int64_t w = 0; w < ways; w++)
                            rr[w]++;
                }
            }
            c[3]++;
        }
        row[fw] = block;
        int64_t pp = 0;
        if (conf > p[P_TAU1])
            pp = p[P_P1];
        else if (conf > p[P_TAU2])
            pp = p[P_P2];
        else if (conf > p[P_TAU3])
            pp = p[P_P3];
        if (kind == KIND_MDPP)
            plru_place(tree, levels, fw, pp);
        else
            rr[fw] = pp;
    }
}
