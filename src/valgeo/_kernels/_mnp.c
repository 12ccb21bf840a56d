/* Compiled min-norm-point kernel (Wolfe's algorithm), plain C99.
 *
 * Mirrors ``pywolfe.py`` operation for operation; the Monte-Carlo membership
 * loops call this on ~1e5 points per estimate, which is why it is compiled.
 * It uses no Python C-API: ``valgeo._kernels`` loads the shared library with
 * ctypes, checks the inputs and calls ``valgeo_hull_distances``.
 *
 * The bordered system of each minor cycle is solved by LU with partial
 * pivoting, as LAPACK's dgesv does; like dgesv, it reports a singular system
 * only on an exactly zero pivot, and the caller then retries with a ridge.
 */

#include <math.h>
#include <stddef.h>
#include <stdlib.h>

/* Solve a x = b in place (a column-major, dim x dim; b overwritten by x).
 * Returns 0, or i > 0 when the i-th pivot is exactly zero. */
static int lu_solve(int dim, double *a, double *b, int *ipiv)
{
    int i, j, k, p;
    double t, amax;

    for (k = 0; k < dim; k++) {
        p = k;
        amax = fabs(a[k + k * dim]);
        for (i = k + 1; i < dim; i++) {
            if (fabs(a[i + k * dim]) > amax) {
                amax = fabs(a[i + k * dim]);
                p = i;
            }
        }
        ipiv[k] = p;
        if (a[p + k * dim] == 0.0)
            return k + 1;
        if (p != k) {
            for (j = 0; j < dim; j++) {
                t = a[k + j * dim];
                a[k + j * dim] = a[p + j * dim];
                a[p + j * dim] = t;
            }
        }
        t = 1.0 / a[k + k * dim];
        for (i = k + 1; i < dim; i++)
            a[i + k * dim] *= t;
        for (j = k + 1; j < dim; j++) {
            t = a[k + j * dim];
            if (t != 0.0)
                for (i = k + 1; i < dim; i++)
                    a[i + j * dim] -= t * a[i + k * dim];
        }
    }
    for (k = 0; k < dim; k++) {
        p = ipiv[k];
        if (p != k) {
            t = b[k];
            b[k] = b[p];
            b[p] = t;
        }
    }
    for (k = 0; k < dim; k++)
        if (b[k] != 0.0)
            for (i = k + 1; i < dim; i++)
                b[i] -= b[k] * a[i + k * dim];
    for (k = dim - 1; k >= 0; k--)
        if (b[k] != 0.0) {
            b[k] /= a[k + k * dim];
            for (i = 0; i < k; i++)
                b[i] -= b[k] * a[i + k * dim];
        }
    return 0;
}

/* Solve the (k+1) bordered system for the affine minimizer. */
static int solve_bordered(const double *gram, int k, double *a, double *rhs,
                          int *ipiv, double ridge)
{
    int dim = k + 1;
    int i, j;
    for (j = 0; j < k; j++) {
        for (i = 0; i < k; i++)
            a[i + j * dim] = gram[i * k + j];
        a[k + j * dim] = 1.0;
        a[j + k * dim] = 1.0;
    }
    a[k + k * dim] = 0.0;
    if (ridge > 0.0)
        for (i = 0; i < k; i++)
            a[i + i * dim] += ridge;
    for (i = 0; i < k; i++)
        rhs[i] = 0.0;
    rhs[k] = 1.0;
    return lu_solve(dim, a, rhs, ipiv);
}

static double point_distance(const double *verts, int m, int n, const double *x0,
                             double *w, double *sq, double *x, double *lam,
                             double *alpha, double *gram, double *a, double *rhs,
                             int *ipiv, int *corral, int max_iter)
{
    int i, j, t, k, jstar, drop, it, info, in_corral;
    double scale, tol, s, xx, best, theta, r, smin, lsum, tr;

    scale = 0.0;
    for (j = 0; j < m; j++) {
        s = 0.0;
        for (t = 0; t < n; t++) {
            w[j * n + t] = verts[j * n + t] - x0[t];
            s += w[j * n + t] * w[j * n + t];
        }
        sq[j] = s;
        if (s > scale)
            scale = s;
    }
    if (scale == 0.0)
        return 0.0;
    tol = 1e-12 * scale;

    jstar = 0;
    for (j = 1; j < m; j++)
        if (sq[j] < sq[jstar])
            jstar = j;
    corral[0] = jstar;
    lam[0] = 1.0;
    k = 1;
    for (t = 0; t < n; t++)
        x[t] = w[jstar * n + t];

    for (it = 0; it < max_iter; it++) {
        xx = 0.0;
        for (t = 0; t < n; t++)
            xx += x[t] * x[t];
        best = 0.0;
        jstar = 0;
        for (j = 0; j < m; j++) {
            s = 0.0;
            for (t = 0; t < n; t++)
                s += w[j * n + t] * x[t];
            if (j == 0 || s < best) {
                best = s;
                jstar = j;
            }
        }
        if (xx - best <= tol)
            return sqrt(xx > 0.0 ? xx : 0.0);
        in_corral = 0;
        for (i = 0; i < k; i++)
            if (corral[i] == jstar) {
                in_corral = 1;
                break;
            }
        if (in_corral)
            return sqrt(xx > 0.0 ? xx : 0.0);
        corral[k] = jstar;
        lam[k] = 0.0;
        k += 1;

        for (;;) {
            tr = 0.0;
            for (i = 0; i < k; i++) {
                for (j = i; j < k; j++) {
                    s = 0.0;
                    for (t = 0; t < n; t++)
                        s += w[corral[i] * n + t] * w[corral[j] * n + t];
                    gram[i * k + j] = s;
                    gram[j * k + i] = s;
                }
                tr += gram[i * k + i];
            }
            info = solve_bordered(gram, k, a, rhs, ipiv, 0.0);
            if (info != 0) {
                info = solve_bordered(gram, k, a, rhs, ipiv,
                                      1e-12 * (tr > 1.0 ? tr : 1.0) / k);
                if (info != 0)
                    break;
            }
            for (i = 0; i < k; i++)
                alpha[i] = rhs[i];
            smin = alpha[0];
            for (i = 1; i < k; i++)
                if (alpha[i] < smin)
                    smin = alpha[i];
            if (smin > 1e-12) {
                for (i = 0; i < k; i++)
                    lam[i] = alpha[i];
                for (t = 0; t < n; t++)
                    x[t] = 0.0;
                for (i = 0; i < k; i++)
                    for (t = 0; t < n; t++)
                        x[t] += alpha[i] * w[corral[i] * n + t];
                break;
            }
            theta = 1.0;
            for (i = 0; i < k; i++)
                if (alpha[i] <= 1e-12) {
                    s = lam[i] - alpha[i];
                    if (s > 0.0) {
                        r = lam[i] / s;
                        if (r < theta)
                            theta = r;
                    }
                }
            if (theta < 0.0)
                theta = 0.0;
            for (i = 0; i < k; i++)
                lam[i] = theta * alpha[i] + (1.0 - theta) * lam[i];
            drop = 0;
            for (i = 1; i < k; i++)
                if (lam[i] < lam[drop])
                    drop = i;
            for (i = drop; i < k - 1; i++) {
                corral[i] = corral[i + 1];
                lam[i] = lam[i + 1];
            }
            k -= 1;
            lsum = 0.0;
            for (i = 0; i < k; i++)
                lsum += lam[i];
            if (k == 0 || lsum <= 0.0) {
                corral[0] = jstar;
                lam[0] = 1.0;
                k = 1;
                for (t = 0; t < n; t++)
                    x[t] = w[jstar * n + t];
                break;
            }
            for (i = 0; i < k; i++)
                lam[i] /= lsum;
        }
    }

    xx = 0.0;
    for (t = 0; t < n; t++)
        xx += x[t] * x[t];
    return sqrt(xx > 0.0 ? xx : 0.0);
}

/* Euclidean distance from each of the npts rows of ``points`` (npts x n,
 * C order) to the convex hull of the m rows of ``verts`` (m x n, m >= 1),
 * written to ``out``.  Returns 0, or -1 if the workspace cannot be allocated.
 * The one exported symbol (``export_symbols`` in setup.py). */
int valgeo_hull_distances(const double *points, ptrdiff_t npts, const double *verts,
                          int m, int n, int max_iter, double *out)
{
    /* w, sq, x, lam, alpha, gram, a, rhs; then ipiv and corral. */
    size_t nd = (size_t)m * n + m + n + 2 * ((size_t)m + 1)
                + ((size_t)m + 1) * (m + 1) + ((size_t)m + 2) * (m + 3);
    double *dbuf = malloc(nd * sizeof(double));
    int *ibuf = malloc((2 * (size_t)m + 3) * sizeof(int));
    double *w, *sq, *x, *lam, *alpha, *gram, *a, *rhs;
    ptrdiff_t i;

    if (dbuf == NULL || ibuf == NULL) {
        free(dbuf);
        free(ibuf);
        return -1;
    }
    w = dbuf;
    sq = w + (size_t)m * n;
    x = sq + m;
    lam = x + n;
    alpha = lam + m + 1;
    gram = alpha + m + 1;
    a = gram + (size_t)(m + 1) * (m + 1);
    rhs = a + (size_t)(m + 2) * (m + 2);
    for (i = 0; i < npts; i++)
        out[i] = point_distance(verts, m, n, points + i * n, w, sq, x, lam, alpha,
                                gram, a, rhs, ibuf, ibuf + m + 2, max_iter);
    free(dbuf);
    free(ibuf);
    return 0;
}
