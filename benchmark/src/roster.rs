//! Seeded roster generator: every kernel, buffer, launch geometry, request
//! schedule and serving scenario a workload feeds to the crates derives
//! from `--seed` here; the code under test only ever sees the result.
//!
//! A seed picks immediates, register allocation, ring permutations, buffer
//! contents and orderings — never a loop count or a grid size — so two
//! seeds give different texts of the same size class and the timings of
//! different seeds stay comparable.

use crate::recorder::Recorder;
use crate::stats::Fnv;
use hopper_isa::asm::assemble_named;
use hopper_isa::{
    CmpOp, DType, IAluOp, Kernel, KernelBuilder, MmaDesc, Operand, OperandSource, Pred, Reg,
    TileId, TilePattern,
};
use hopper_serve::server::device_config;
use hopper_sim::{Gpu, Launch, SimOptions};

/// SplitMix64 (the generator `hopper-audit` seeds its fuzzer with).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Kernel classes, one per engine mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One warp chasing a DRAM ring: fast-forward and wake lists.
    Pchase,
    /// 32 SMs × 32 warps, one spinner and 1023 chasers: ready-set steady state.
    PchaseBusy,
    /// Grid-strided copy: coalescer, L1, L2, DRAM.
    Stream,
    /// 32-way conflicting shared loads: the bank-conflict calculation.
    SmemConflict,
    /// Shared + global histogram atomics.
    Atomics,
    /// Issue-bound integer spin at 32 warps/SM: scoreboard and issue loop.
    Alu,
    /// Independent DPX streams.
    Dpx,
    /// f16 / int8 / 2:4-sparse `mma` chains: functional numerics.
    Mma,
    /// f16 and fp8 `wgmma` chain (Hopper only).
    Wgmma,
    /// `cp.async` staged tile loop.
    AsyncCopy,
    /// Cluster-of-2 `mapa` exchange over distributed shared memory.
    ClusterDsm,
}

impl Class {
    /// Every class, in catalogue order.
    pub const ALL: [Class; 11] = [
        Class::Pchase,
        Class::PchaseBusy,
        Class::Stream,
        Class::SmemConflict,
        Class::Atomics,
        Class::Alu,
        Class::Dpx,
        Class::Mma,
        Class::Wgmma,
        Class::AsyncCopy,
        Class::ClusterDsm,
    ];

    /// Short name (metric stem).
    pub fn name(self) -> &'static str {
        self.names().0
    }

    /// Op name of a launch of this class.
    pub fn op(self) -> &'static str {
        self.names().1
    }

    /// Span name of the `Gpu::launch` call of this class.
    pub fn launch_span(self) -> &'static str {
        self.names().2
    }

    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Class::Pchase => ("pchase", "engine.pchase", "sim.launch.pchase"),
            Class::PchaseBusy => (
                "pchase_busy",
                "engine.pchase_busy",
                "sim.launch.pchase_busy",
            ),
            Class::Stream => ("stream", "engine.stream", "sim.launch.stream"),
            Class::SmemConflict => (
                "smem_conflict",
                "engine.smem_conflict",
                "sim.launch.smem_conflict",
            ),
            Class::Atomics => ("atomics", "engine.atomics", "sim.launch.atomics"),
            Class::Alu => ("alu", "engine.alu", "sim.launch.alu"),
            Class::Dpx => ("dpx", "engine.dpx", "sim.launch.dpx"),
            Class::Mma => ("mma", "engine.mma", "sim.launch.mma"),
            Class::Wgmma => ("wgmma", "engine.wgmma", "sim.launch.wgmma"),
            Class::AsyncCopy => ("async_copy", "engine.async_copy", "sim.launch.async_copy"),
            Class::ClusterDsm => (
                "cluster_dsm",
                "engine.cluster_dsm",
                "sim.launch.cluster_dsm",
            ),
        }
    }

    /// Loop trips at full size, chosen so one launch on the H800 costs
    /// roughly 40–80 ms of host time at this commit (README, sizing table).
    fn base_iters(self) -> u32 {
        match self {
            Class::Pchase => 140_000,
            Class::PchaseBusy => 48,
            Class::Stream => 72,
            Class::SmemConflict => 176,
            Class::Atomics => 120,
            Class::Alu => 40,
            Class::Dpx => 96,
            Class::Mma => 10,
            Class::Wgmma => 2,
            Class::AsyncCopy => 120,
            Class::ClusterDsm => 3000,
        }
    }
}

/// Initial contents of a device buffer.
#[derive(Debug, Clone)]
pub enum BufInit {
    /// Untouched (reads as zero, costs nothing to set up).
    Zero,
    /// Seeded bytes, copied in with one bulk write.
    Bytes(Vec<u8>),
    /// Pointer ring: entry `i` (at `i * stride`) points at entry
    /// `(i + step) % n`; `step` is odd and `n` a power of two, so the
    /// chase visits every entry.
    Ring {
        /// Entries.
        n: u64,
        /// Bytes between entries.
        stride: u64,
        /// Hop, in entries.
        step: u64,
    },
}

/// One device buffer of a case.
#[derive(Debug, Clone)]
pub struct Buf {
    /// Allocation size.
    pub bytes: u64,
    /// Initial contents.
    pub init: BufInit,
}

/// One generated launch: kernel, geometry, buffers.
#[derive(Debug, Clone)]
pub struct Case {
    /// Kernel class.
    pub class: Class,
    /// Wire device name (`h800`, `a100`, `rtx4090`).
    pub device: &'static str,
    /// The kernel.
    pub kernel: Kernel,
    /// Its assembly text (`None` for builder-only tensor kernels).
    pub text: Option<String>,
    /// Blocks (≤ 32, so every block is co-simulated on its own SM).
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Cluster size.
    pub cluster: u32,
    /// Buffers; their addresses become `%r0..` in order.
    pub bufs: Vec<Buf>,
    /// Buffer whose final contents are the launch's memory image, and how
    /// many of its bytes to read back.
    pub image: Option<(usize, usize)>,
}

impl Case {
    /// Bring up a fresh device, allocate and fill the buffers.  Returns the
    /// device, the launch and the number of bytes written.
    pub fn instantiate(&self, opts: SimOptions, rec: &mut Recorder) -> (Gpu, Launch, u64) {
        let t = rec.begin("sim.gpu_new");
        let dev = device_config(self.device).expect("roster devices are wire names");
        let mut gpu = Gpu::with_options(dev, opts);
        rec.end(t);
        let t = rec.begin("sim.mem_init");
        let mut params = Vec::with_capacity(self.bufs.len());
        let mut written = 0u64;
        for buf in &self.bufs {
            let addr = gpu.alloc(buf.bytes).expect("roster buffers fit the device");
            match &buf.init {
                BufInit::Zero => {}
                BufInit::Bytes(data) => {
                    gpu.write(addr, data);
                    written += data.len() as u64;
                }
                BufInit::Ring { n, stride, step } => {
                    for i in 0..*n {
                        let next = addr + ((i + step) % n) * stride;
                        gpu.mem_mut().write_scalar(addr + i * stride, 8, next);
                    }
                    written += n * 8;
                }
            }
            params.push(addr);
        }
        rec.end(t);
        let launch = Launch::new(self.grid, self.block)
            .with_params(params)
            .with_cluster(self.cluster);
        (gpu, launch, written)
    }

    /// FNV digest of the launch's memory image (0 when the case has none).
    pub fn image_digest(&self, gpu: &Gpu, launch: &Launch) -> u64 {
        let Some((buf, bytes)) = self.image else {
            return 0;
        };
        let mut h = Fnv::default();
        h.write(&gpu.read(launch.params[buf], bytes));
        h.0
    }

    fn fold_into(&self, h: &mut Fnv) {
        h.write(self.class.name().as_bytes());
        h.write(self.device.as_bytes());
        h.write_u64(self.kernel.digest());
        h.write_u64(self.grid as u64);
        h.write_u64(self.block as u64);
        h.write_u64(self.cluster as u64);
        for b in &self.bufs {
            h.write_u64(b.bytes);
            match &b.init {
                BufInit::Zero => h.write_u64(0),
                BufInit::Bytes(d) => h.write(d),
                BufInit::Ring { n, stride, step } => {
                    h.write_u64(*n);
                    h.write_u64(*stride);
                    h.write_u64(*step);
                }
            }
        }
    }
}

/// Digest of a list of cases.
pub fn cases_digest(cases: &[Case]) -> u64 {
    let mut h = Fnv::default();
    for c in cases {
        c.fold_into(&mut h);
    }
    h.0
}

/// Rename `%r<nparams>..%r15` through a seeded permutation.  Kernels here
/// keep to `%r0..%r15`, so register pressure (and occupancy) is unchanged.
fn rename_regs(text: &str, nparams: usize, rng: &mut SplitMix64) -> String {
    let mut perm: Vec<usize> = (nparams..16).collect();
    rng.shuffle(&mut perm);
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("%r") {
        let digits: String = rest[at + 2..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        out.push_str(&rest[..at]);
        match digits.parse::<usize>() {
            Ok(n) if (nparams..16).contains(&n) => {
                out.push_str(&format!("%r{}", perm[n - nparams]));
            }
            _ => {
                out.push_str("%r");
                out.push_str(&digits);
            }
        }
        rest = &rest[at + 2 + digits.len()..];
    }
    out.push_str(rest);
    out
}

fn seeded_bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(n);
    out
}

/// Same-cost integer ALU mnemonics a seed may choose between.
const ALU_OPS: [&str; 5] = ["add", "sub", "xor", "or", "max"];

fn text_case(
    class: Class,
    dev: &'static str,
    geometry: (u32, u32, u32),
    body: String,
    bufs: Vec<Buf>,
    image: Option<(usize, usize)>,
    rng: &mut SplitMix64,
) -> Case {
    let text = rename_regs(&body, bufs.len(), rng);
    let name = format!("{}_{:08x}", class.name(), rng.next_u64() as u32);
    let kernel = assemble_named(&text, &name).unwrap_or_else(|e| {
        panic!("roster kernel {name} must assemble: {e}\n{text}");
    });
    Case {
        class,
        device: dev,
        kernel,
        text: Some(text),
        grid: geometry.0,
        block: geometry.1,
        cluster: geometry.2,
        bufs,
        image,
    }
}

/// Generate one case of `class` for `dev`.  `shrink` divides the class's
/// loop count (1 = full size).
pub fn case(class: Class, dev: &'static str, shrink: u32, rng: &mut SplitMix64) -> Case {
    let iters = (class.base_iters() / shrink.max(1)).max(2);
    let imm = 1 + rng.below(1 << 12);
    match class {
        Class::Pchase => {
            let (n, stride) = (8192u64, 512u64);
            let step = 1 + 2 * rng.below(n / 2);
            let body = format!(
                "mov.s32 %r5, {imm};\n\
                 mov.s64 %r3, %r0;\n\
                 mov.s32 %r4, 0;\n\
                 LOOP:\n\
                 ld.global.cg.b64 %r3, [%r3];\n\
                 add.s32 %r4, %r4, 1;\n\
                 setp.lt.s32 %p0, %r4, {iters};\n\
                 @%p0 bra LOOP;\n\
                 exit;"
            );
            let ring = Buf {
                bytes: n * stride,
                init: BufInit::Ring { n, stride, step },
            };
            text_case(class, dev, (1, 1, 1), body, vec![ring], None, rng)
        }
        Class::PchaseBusy => {
            let n = 4096u64;
            let step = 1 + 2 * rng.below(n / 2);
            let spin = iters * 300;
            let body = format!(
                "mov %r1, %warpid;\n\
                 mov %r2, %ctaid.x;\n\
                 mad.s32 %r7, %r2, 32, %r1;\n\
                 setp.ne.s32 %p1, %r7, 0;\n\
                 @%p1 bra CHASE;\n\
                 mov.s32 %r6, 0;\n\
                 SPIN:\n\
                 add.s32 %r6, %r6, 1;\n\
                 setp.lt.s32 %p2, %r6, {spin};\n\
                 @%p2 bra SPIN;\n\
                 exit;\n\
                 CHASE:\n\
                 shl.s32 %r4, %r7, 3;\n\
                 and.s32 %r4, %r4, 32767;\n\
                 add.s32 %r5, %r4, %r0;\n\
                 mov.s32 %r6, {imm};\n\
                 mov.s32 %r6, 0;\n\
                 LOOP:\n\
                 ld.global.cg.b64 %r5, [%r5];\n\
                 add.s32 %r6, %r6, 1;\n\
                 setp.lt.s32 %p0, %r6, {iters};\n\
                 @%p0 bra LOOP;\n\
                 exit;"
            );
            let ring = Buf {
                bytes: n * 8,
                init: BufInit::Ring { n, stride: 8, step },
            };
            text_case(class, dev, (32, 1024, 1), body, vec![ring], None, rng)
        }
        Class::Stream => {
            let (grid, block) = (32u32, 256u32);
            let stride = grid * block;
            let bytes = stride as u64 * iters as u64 * 4;
            let body = format!(
                "mov %r2, %tid.x;\n\
                 mov %r3, %ctaid.x;\n\
                 mad.s32 %r4, %r3, {block}, %r2;\n\
                 mov.s32 %r5, 0;\n\
                 LOOP:\n\
                 mad.s32 %r6, %r5, {stride}, %r4;\n\
                 shl.s32 %r7, %r6, 2;\n\
                 mad.s64 %r8, %r7, 1, %r0;\n\
                 mad.s64 %r9, %r7, 1, %r1;\n\
                 ld.global.cg.b32 %r10, [%r8];\n\
                 add.s32 %r10, %r10, {imm};\n\
                 st.global.b32 [%r9], %r10;\n\
                 add.s32 %r5, %r5, 1;\n\
                 setp.lt.s32 %p0, %r5, {iters};\n\
                 @%p0 bra LOOP;\n\
                 exit;"
            );
            let src = Buf {
                bytes,
                init: BufInit::Bytes(seeded_bytes(rng, bytes as usize)),
            };
            let dst = Buf {
                bytes,
                init: BufInit::Zero,
            };
            let image = Some((1, bytes as usize));
            text_case(
                class,
                dev,
                (grid, block, 1),
                body,
                vec![src, dst],
                image,
                rng,
            )
        }
        Class::SmemConflict => {
            let block = 256u32;
            let hop = 4 * (1 + rng.below(8));
            let body = format!(
                ".shared 16384;\n\
                 mov %r1, %tid.x;\n\
                 mul.s32 %r2, %r1, 128;\n\
                 and.s32 %r2, %r2, 16383;\n\
                 st.shared.b32 [%r2], %r1;\n\
                 bar.sync;\n\
                 mov.s32 %r3, 0;\n\
                 mov.s32 %r4, {imm};\n\
                 LOOP:\n\
                 ld.shared.b32 %r5, [%r2];\n\
                 add.s32 %r4, %r4, %r5;\n\
                 add.s32 %r2, %r2, {hop};\n\
                 and.s32 %r2, %r2, 16380;\n\
                 add.s32 %r3, %r3, 1;\n\
                 setp.lt.s32 %p0, %r3, {iters};\n\
                 @%p0 bra LOOP;\n\
                 mov %r6, %ctaid.x;\n\
                 mad.s32 %r7, %r6, {block}, %r1;\n\
                 shl.s32 %r7, %r7, 2;\n\
                 add.s64 %r7, %r7, %r0;\n\
                 st.global.b32 [%r7], %r4;\n\
                 exit;"
            );
            let out_bytes = 32 * block as u64 * 4;
            let out = Buf {
                bytes: out_bytes,
                init: BufInit::Zero,
            };
            let image = Some((0, out_bytes as usize));
            text_case(class, dev, (32, block, 1), body, vec![out], image, rng)
        }
        Class::Atomics => {
            let k = 1 + 2 * rng.below(64);
            let body = format!(
                ".shared 1024;\n\
                 mov %r1, %tid.x;\n\
                 mov.s32 %r2, 0;\n\
                 LOOP:\n\
                 mad.s32 %r3, %r2, {k}, %r1;\n\
                 and.s32 %r3, %r3, 255;\n\
                 shl.s32 %r4, %r3, 2;\n\
                 atom.shared.add.b32 [%r4], 1;\n\
                 add.s64 %r5, %r4, %r0;\n\
                 atom.global.add.b32 [%r5], 1;\n\
                 add.s32 %r2, %r2, 1;\n\
                 setp.lt.s32 %p0, %r2, {iters};\n\
                 @%p0 bra LOOP;\n\
                 exit;"
            );
            let bins = Buf {
                bytes: 1024,
                init: BufInit::Zero,
            };
            text_case(
                class,
                dev,
                (32, 256, 1),
                body,
                vec![bins],
                Some((0, 1024)),
                rng,
            )
        }
        Class::Alu => {
            let (op1, op2) = (*rng.pick(&ALU_OPS), *rng.pick(&ALU_OPS));
            let (c1, c2) = (1 + rng.below(1 << 16), 1 + rng.below(1 << 16));
            let body = format!(
                "mov %r1, %tid.x;\n\
                 mov.s32 %r2, {imm};\n\
                 mov.s32 %r3, 0;\n\
                 LOOP:\n\
                 {op1}.s32 %r2, %r2, {c1};\n\
                 {op2}.s32 %r4, %r2, {c2};\n\
                 mad.s32 %r2, %r4, 3, %r1;\n\
                 add.s32 %r3, %r3, 1;\n\
                 setp.lt.s32 %p0, %r3, {iters};\n\
                 @%p0 bra LOOP;\n\
                 exit;"
            );
            text_case(class, dev, (32, 1024, 1), body, Vec::new(), None, rng)
        }
        Class::Dpx => {
            let (a, b) = (rng.below(1 << 15), rng.below(1 << 15));
            let mut body = format!(
                "mov.s32 %r1, {a};\n\
                 mov.s32 %r2, -{b};\n\
                 mov.s32 %r3, {imm};\n\
                 mov.s32 %r4, 0;\n\
                 LOOP:\n"
            );
            for dst in 8..16 {
                body.push_str(&format!("dpx.vimax3_s32 %r{dst}, %r1, %r2, %r3;\n"));
            }
            body.push_str(&format!(
                "add.s32 %r4, %r4, 1;\n\
                 setp.lt.s32 %p0, %r4, {iters};\n\
                 @%p0 bra LOOP;\n\
                 exit;"
            ));
            text_case(class, dev, (32, 256, 1), body, Vec::new(), None, rng)
        }
        Class::Mma => tensor_case(class, dev, iters, rng),
        Class::Wgmma => tensor_case(class, "h800", iters, rng),
        Class::AsyncCopy => {
            let (grid, block) = (32u32, 128u32);
            let buf_bytes = 1u64 << 21;
            let tile_stride = grid as u64 * block as u64 * 16;
            let mask = buf_bytes - 1;
            let body = format!(
                ".shared 8192;\n\
                 mov %r1, %tid.x;\n\
                 mov %r2, %ctaid.x;\n\
                 shl.s32 %r3, %r1, 4;\n\
                 mad.s32 %r8, %r2, {cta_bytes}, %r3;\n\
                 mov.s32 %r5, 0;\n\
                 mov.s32 %r6, {imm};\n\
                 LOOP:\n\
                 add.s64 %r4, %r8, %r0;\n\
                 cp.async.cg.shared.global [%r3], [%r4], 16;\n\
                 cp.async.commit_group;\n\
                 cp.async.wait_group 0;\n\
                 bar.sync;\n\
                 ld.shared.b32 %r7, [%r3];\n\
                 fma.f32 %r6, %r7, %r7, %r6;\n\
                 add.s32 %r8, %r8, {tile_stride};\n\
                 and.s32 %r8, %r8, {mask};\n\
                 add.s32 %r5, %r5, 1;\n\
                 setp.lt.s32 %p0, %r5, {iters};\n\
                 @%p0 bra LOOP;\n\
                 exit;",
                cta_bytes = block * 16,
            );
            let src = Buf {
                bytes: buf_bytes,
                init: BufInit::Bytes(seeded_bytes(rng, buf_bytes as usize)),
            };
            text_case(class, dev, (grid, block, 1), body, vec![src], None, rng)
        }
        Class::ClusterDsm => {
            let block = 256u32;
            let body = format!(
                ".shared 4096;\n\
                 mov %r1, %tid.x;\n\
                 shl.s32 %r2, %r1, 2;\n\
                 mov %r3, %cluster_ctarank;\n\
                 xor.s32 %r4, %r3, 1;\n\
                 mov.s32 %r5, 0;\n\
                 LOOP:\n\
                 mapa %r6, %r2, %r4;\n\
                 atom.shared::cluster.add.b32 [%r6], {imm};\n\
                 barrier.cluster;\n\
                 add.s32 %r5, %r5, 1;\n\
                 setp.lt.s32 %p0, %r5, {iters};\n\
                 @%p0 bra LOOP;\n\
                 ld.shared.b32 %r7, [%r2];\n\
                 mov %r8, %ctaid.x;\n\
                 mad.s32 %r9, %r8, {block}, %r1;\n\
                 shl.s32 %r9, %r9, 2;\n\
                 add.s64 %r9, %r9, %r0;\n\
                 st.global.b32 [%r9], %r7;\n\
                 exit;"
            );
            let out_bytes = 2 * block as u64 * 4;
            let out = Buf {
                bytes: out_bytes,
                init: BufInit::Zero,
            };
            let image = Some((0, out_bytes as usize));
            text_case(class, "h800", (2, block, 2), body, vec![out], image, rng)
        }
    }
}

/// Tensor-core chains have no text form (`fill_tile` is builder-only).
fn tensor_case(class: Class, dev: &'static str, iters: u32, rng: &mut SplitMix64) -> Case {
    let mut b = KernelBuilder::new(format!("{}_{:08x}", class.name(), rng.next_u64() as u32));
    // `mma` has no FP8 form (Table VI), so FP8 rides the `wgmma` chain and
    // the warp-level chain covers f16, int8 and 2:4-sparse f16.
    let descs: Vec<MmaDesc> = if class == Class::Wgmma {
        [DType::F16, DType::E4M3]
            .into_iter()
            .map(|ab| {
                MmaDesc::wgmma(128, ab, DType::F32, false, OperandSource::SharedShared)
                    .expect("valid wgmma shape")
            })
            .collect()
    } else {
        [
            MmaDesc::mma(16, 8, 16, DType::F16, DType::F32, false),
            MmaDesc::mma(16, 8, 32, DType::S8, DType::S32, false),
            MmaDesc::mma(16, 8, 32, DType::F16, DType::F32, true),
        ]
        .into_iter()
        .map(|d| d.expect("valid mma shape"))
        .collect()
    };
    for (i, d) in descs.iter().enumerate() {
        let (m, n, k) = (d.m as u16, d.n as u16, d.k as u16);
        let t = 3 * i as u8;
        let seed = rng.next_u64();
        let a_pat = if d.sparse {
            TilePattern::Sparse24Random { seed }
        } else {
            TilePattern::Random { seed }
        };
        b.fill_tile(TileId(t), d.ab, m, k, a_pat);
        b.fill_tile(TileId(t + 1), d.ab, k, n, TilePattern::Random { seed });
        b.fill_tile(TileId(t + 2), d.cd, m, n, TilePattern::Zero);
    }
    b.mov(Reg(1), Operand::Imm(0));
    if class == Class::Wgmma {
        b.wgmma_fence();
    }
    let top = b.label_here();
    for (i, d) in descs.iter().enumerate() {
        let t = 3 * i as u8;
        if class == Class::Wgmma {
            b.wgmma(*d, TileId(t + 2), TileId(t), TileId(t + 1));
            b.wgmma_commit();
            b.wgmma_wait(0);
        } else {
            b.mma(*d, TileId(t + 2), TileId(t), TileId(t + 1), TileId(t + 2));
        }
    }
    b.ialu(IAluOp::Add, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1));
    b.setp(
        Pred(0),
        CmpOp::Lt,
        Operand::Reg(Reg(1)),
        Operand::Imm(iters as i64),
    );
    b.bra_if(top, Pred(0), true);
    b.exit();
    Case {
        class,
        device: dev,
        kernel: b.build(),
        text: None,
        grid: 32,
        block: 128,
        cluster: 1,
        bufs: Vec::new(),
        image: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs of SplitMix64 seeded with 1234567.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
    }

    #[test]
    fn rename_keeps_params_and_is_a_bijection() {
        let mut rng = SplitMix64::new(7);
        let out = rename_regs("add.s32 %r10, %r1, %r0; mov %r15, %r1;", 1, &mut rng);
        assert!(out.contains("%r0;"), "{out}");
        let regs: Vec<&str> = out.split("%r").skip(1).collect();
        // Both uses of %r1 map to the same register.
        let first = regs[1].split(|c: char| !c.is_ascii_digit()).next().unwrap();
        let again = regs[4].split(|c: char| !c.is_ascii_digit()).next().unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn two_seeds_give_different_texts_of_the_same_size() {
        for class in Class::ALL {
            let a = case(class, "h800", 50, &mut SplitMix64::new(1));
            let b = case(class, "h800", 50, &mut SplitMix64::new(2));
            let again = case(class, "h800", 50, &mut SplitMix64::new(1));
            assert_eq!(a.kernel.digest(), again.kernel.digest(), "{class:?}");
            assert_ne!(a.kernel.digest(), b.kernel.digest(), "{class:?}");
            assert_eq!(a.kernel.instrs.len(), b.kernel.instrs.len(), "{class:?}");
            assert_eq!(
                (a.grid, a.block, a.cluster, a.bufs.len()),
                (b.grid, b.block, b.cluster, b.bufs.len())
            );
            assert_eq!(a.kernel.regs_per_thread, b.kernel.regs_per_thread);
        }
    }

    #[test]
    fn every_class_launches_on_its_devices() {
        for class in Class::ALL {
            for dev in ["h800", "a100", "rtx4090"] {
                if matches!(class, Class::Wgmma | Class::ClusterDsm) && dev != "h800" {
                    continue;
                }
                let c = case(class, dev, 50, &mut SplitMix64::new(3));
                let mut rec = Recorder::default();
                let (mut gpu, launch, _) = c.instantiate(SimOptions::default(), &mut rec);
                let stats = gpu.launch(&c.kernel, &launch).expect("launch");
                assert!(stats.metrics.instructions > 0, "{class:?}@{dev}");
            }
        }
    }
}
