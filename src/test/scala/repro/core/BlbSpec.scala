package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class BlbSpec extends AnyFunSuite {

  private def gaussianSample(n: Int, mu: Double, sd: Double, seed: Long): Array[Double] = {
    val rnd = new Random(seed)
    Array.fill(n)(mu + rnd.nextGaussian() * sd)
  }

  // ---- subsample plan ------------------------------------------------------

  test("subsamplePlan: s*b <= N as §V-B requires") {
    Seq(10, 37, 100, 1000, 5000).foreach { n =>
      val (b, s) = Blb.subsamplePlan(n, 0.6)
      assert(s * b <= n, s"n=$n b=$b s=$s")
      assert(b >= 2 && s >= 1)
    }
  }

  test("subsamplePlan: b grows as N^m") {
    val (b1, _) = Blb.subsamplePlan(100, 0.6)
    val (b2, _) = Blb.subsamplePlan(10000, 0.6)
    assert(b1 === math.ceil(math.pow(100, 0.6)).toInt)
    assert(b2 === math.ceil(math.pow(10000, 0.6)).toInt)
  }

  // ---- local BLB -----------------------------------------------------------

  test("estimate: deltaStar is the exact sample mean") {
    val xs = Array(0.1, 0.2, 0.3, 0.4)
    val est = Blb.estimate(xs, m = 0.6, r = 50, seed = 1)
    assert(math.abs(est.deltaStar - 0.25) < 1e-12)
  }

  test("estimate: MoE scales roughly like 1/sqrt(N)") {
    val sd = 0.1
    val small = Blb.estimate(gaussianSample(100, 0.5, sd, 1), 0.6, 100, seed = 2)
    val large = Blb.estimate(gaussianSample(6400, 0.5, sd, 3), 0.6, 100, seed = 4)
    // 64x more data → ~8x smaller MoE; allow generous slack.
    assert(large.moe < small.moe / 3.0, s"small=${small.moe} large=${large.moe}")
  }

  test("estimate: MoE close to the CLT value z*sd/sqrt(N)") {
    val n = 2000
    val sd = 0.2
    val est = Blb.estimate(gaussianSample(n, 0.5, sd, 7), 0.6, 120, seed = 8)
    val clt = 1.96 * sd / math.sqrt(n.toDouble)
    assert(est.moe > clt * 0.5 && est.moe < clt * 2.0, s"moe=${est.moe} clt=$clt")
  }

  test("estimate: zero-variance data gives (near) zero MoE") {
    val est = Blb.estimate(Array.fill(50)(0.3), 0.6, 50, seed = 5)
    assert(est.moe < 1e-12)
    assert(math.abs(est.deltaStar - 0.3) < 1e-12)
  }

  test("estimate: tiny samples fall back to the CLT formula") {
    val xs = Array(0.1, 0.5)
    val est = Blb.estimate(xs, 0.6, 50, seed = 6)
    val expected = Blb.Z * Stats.stddev(xs) / math.sqrt(2.0)
    assert(math.abs(est.moe - expected) < 1e-12)
    assert(est.sBlb === 2)
  }

  test("estimate: deterministic in the seed") {
    val xs = gaussianSample(300, 0.4, 0.1, 11)
    val a = Blb.estimate(xs, 0.6, 60, seed = 42)
    val b = Blb.estimate(xs, 0.6, 60, seed = 42)
    assert(a === b)
  }

  test("estimate: CI covers the true mean most of the time (statistical)") {
    val mu = 0.5
    var covered = 0
    (0 until 40).foreach { i =>
      val xs = gaussianSample(400, mu, 0.1, 100 + i)
      val est = Blb.estimate(xs, 0.6, 60, seed = i)
      if (math.abs(est.deltaStar - mu) <= est.moe * 1.5) covered += 1
    }
    // 95% nominal; BLB on 400 points is noisy — require a clear majority.
    assert(covered >= 30, s"covered=$covered/40")
  }

  // ---- Theorem 11 ----------------------------------------------------------

  test("accuracyBound: eps <= delta*e/(1+e)") {
    assert(math.abs(Blb.accuracyBound(0.3, 0.01) - 0.3 * 0.01 / 1.01) < 1e-15)
  }

  test("satisfies: boundary behaviour") {
    val bound = Blb.accuracyBound(0.3, 0.02)
    assert(Blb.satisfies(Blb.Estimate(0.3, bound, 10), 0.02))
    assert(!Blb.satisfies(Blb.Estimate(0.3, bound * 1.01, 10), 0.02))
  }

  test("Theorem 11 algebra: any delta inside the CI has relative error <= e") {
    val e = 0.05
    val deltaStar = 0.4
    val eps = Blb.accuracyBound(deltaStar, e) // the largest admissible MoE
    // worst cases at both CI ends:
    val lo = deltaStar - eps
    val hi = deltaStar + eps
    assert(math.abs(deltaStar - lo) / lo <= e + 1e-12)
    assert(math.abs(deltaStar - hi) / hi <= e + 1e-12)
  }

  // ---- Eq. 12 (error-based incremental sampling) ---------------------------

  test("paper Example 6 (second case): eps=8e-3 → ΔS ≈ 2284") {
    val ds = Blb.deltaSampleSize(moe = 8e-3, deltaStar = 0.3, e = 0.01, m = 0.6, sBlb = 1000)
    assert(math.abs(ds - 2284L) <= 2, s"got $ds")
  }

  test("paper Example 6 (first case): eps=3.5e-3 → ΔS in the ~220-253 range") {
    // The paper prints 253; the formula as written yields ~218 (DESIGN.md §5).
    val ds = Blb.deltaSampleSize(moe = 3.5e-3, deltaStar = 0.3, e = 0.01, m = 0.6, sBlb = 1000)
    assert(ds >= 200 && ds <= 260, s"got $ds")
  }

  test("deltaSampleSize: 0 when the bound is already met") {
    assert(Blb.deltaSampleSize(1e-4, 0.3, 0.05, 0.6, 1000) === 0L)
  }

  test("deltaSampleSize: grows with the MoE") {
    val small = Blb.deltaSampleSize(4e-3, 0.3, 0.01, 0.6, 1000)
    val large = Blb.deltaSampleSize(9e-3, 0.3, 0.01, 0.6, 1000)
    assert(large > small)
  }

  test("deltaSampleSize: degenerate deltaStar falls back to sBlb") {
    assert(Blb.deltaSampleSize(1e-3, 0.0, 0.01, 0.6, 500) === 500L)
  }
}
